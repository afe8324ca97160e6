#include <map>

#include <gtest/gtest.h>

#include "cmem/cmem.hh"
#include "common/random.hh"
#include "mem/node_memory.hh"

using namespace maicc;

TEST(FlatMemory, SparseDefaultZero)
{
    FlatMemory m;
    EXPECT_EQ(m.load(0x80001234, 4), 0u);
    m.store(0x80001234, 0xCAFEBABE, 4);
    EXPECT_EQ(m.load(0x80001234, 4), 0xCAFEBABEu);
    EXPECT_EQ(m.load(0x80001235, 1), 0xBAu);
    EXPECT_EQ(m.load(0x80001234, 2), 0xBABEu);
}

TEST(FlatMemory, PeekPoke)
{
    FlatMemory m;
    m.poke(7, 0x5A);
    EXPECT_EQ(m.peek(7), 0x5A);
    EXPECT_EQ(m.peek(8), 0);
}

TEST(FlatMemory, AccessesStraddlingAPageBoundary)
{
    // 4 KiB pages: every 2- and 4-byte access that crosses one,
    // at each possible split, reads back byte by byte.
    FlatMemory m;
    uint32_t value = 0x11223344;
    for (Addr page : {Addr(0x1000), Addr(0x80004000)}) {
        for (unsigned bytes : {2u, 4u}) {
            for (unsigned before = 1; before < bytes; ++before) {
                Addr a = page - before;
                value = value * 2654435761u + 1;
                m.store(a, value, bytes);
                uint32_t mask =
                    bytes == 4 ? 0xFFFFFFFFu : (1u << (8 * bytes)) - 1;
                EXPECT_EQ(m.load(a, bytes), value & mask)
                    << std::hex << a << " " << bytes;
                for (unsigned i = 0; i < bytes; ++i)
                    EXPECT_EQ(m.peek(a + i),
                              uint8_t(value >> (8 * i)));
            }
        }
    }
}

TEST(FlatMemory, AddressWrapsAt32Bits)
{
    // Byte i of an access lives at addr + i in 32-bit arithmetic,
    // so an access at the top of the space wraps to address 0.
    FlatMemory m;
    m.store(0xFFFFFFFE, 0xA1B2C3D4, 4);
    EXPECT_EQ(m.peek(0xFFFFFFFE), 0xD4);
    EXPECT_EQ(m.peek(0xFFFFFFFF), 0xC3);
    EXPECT_EQ(m.peek(0x00000000), 0xB2);
    EXPECT_EQ(m.peek(0x00000001), 0xA1);
    EXPECT_EQ(m.load(0xFFFFFFFE, 4), 0xA1B2C3D4u);
    EXPECT_EQ(m.load(0xFFFFFFFF, 2), 0xB2C3u);
    EXPECT_EQ(m.load(0x00000000, 2), 0xA1B2u);
    m.store(0xFFFFFFFF, 0x5566, 2);
    EXPECT_EQ(m.peek(0xFFFFFFFF), 0x66);
    EXPECT_EQ(m.peek(0x00000000), 0x55);
    EXPECT_EQ(m.load(0xFFFFFFFC, 4), 0x66D40000u);
}

TEST(FlatMemory, UnwrittenBytesReadZeroBesideWrittenPages)
{
    FlatMemory m;
    m.store(0x80002000, 0xFFFFFFFF, 4);
    EXPECT_EQ(m.peek(0x80002004), 0);    // same page, unwritten
    EXPECT_EQ(m.peek(0x80001FFF), 0);    // previous page, never made
    EXPECT_EQ(m.load(0x80001FFE, 4), 0xFFFF0000u);
    EXPECT_EQ(m.load(0x80002FFE, 4), 0u); // into the next page
    EXPECT_EQ(m.load(0x80002002, 4), 0x0000FFFFu);
    // Reads create nothing: a page read first and written later
    // still starts out zero.
    EXPECT_EQ(m.load(0x80010000, 4), 0u);
    m.poke(0x80010003, 0x7F);
    EXPECT_EQ(m.load(0x80010000, 4), 0x7F000000u);
}

TEST(FlatMemory, PeekPokeAgreeWithLoadStoreAcrossManyPages)
{
    // Random mixed-width traffic over more pages than any page
    // cache holds, checked against a byte map.
    FlatMemory m;
    std::map<Addr, uint8_t> want;
    Rng rng(5);
    const Addr bases[] = {0x0, 0x1000, 0x80000000, 0x80100000,
                          0xFFFFF000};
    for (unsigned i = 0; i < 20000; ++i) {
        Addr a = bases[rng.below(5)] + Addr(rng.below(64)) * 0x1000
            + Addr(rng.below(0x1000));
        unsigned bytes = 1u << rng.below(3);
        switch (rng.below(4)) {
          case 0: {
            uint32_t v = uint32_t(rng.next());
            m.store(a, v, bytes);
            for (unsigned b = 0; b < bytes; ++b)
                want[a + b] = uint8_t(v >> (8 * b));
            break;
          }
          case 1: {
            uint8_t v = uint8_t(rng.next());
            m.poke(a, v);
            want[a] = v;
            break;
          }
          case 2: {
            uint32_t v = 0;
            for (unsigned b = 0; b < bytes; ++b) {
                auto it = want.find(a + b);
                v |= uint32_t(it == want.end() ? 0 : it->second)
                    << (8 * b);
            }
            ASSERT_EQ(m.load(a, bytes), v) << std::hex << a;
            break;
          }
          default: {
            auto it = want.find(a);
            ASSERT_EQ(m.peek(a), it == want.end() ? 0 : it->second)
                << std::hex << a;
          }
        }
    }
    for (const auto &[a, v] : want)
        ASSERT_EQ(m.peek(a), v) << std::hex << a;
}

TEST(NodeMemory, DmemReadWrite)
{
    CMem cm;
    NodeMemory nm(cm);
    nm.store(0x10, 0xDEADBEEF, 4);
    EXPECT_EQ(nm.load(0x10, 4), 0xDEADBEEFu);
    EXPECT_EQ(nm.load(0x12, 2), 0xDEADu);
    EXPECT_EQ(nm.peekDmem(0x10), 0xEF);
}

TEST(NodeMemory, Slice0WindowHitsCMem)
{
    CMem cm;
    NodeMemory nm(cm);
    nm.store(amap::slice0Base + 100, 0x42, 1);
    EXPECT_EQ(cm.loadByte(100), 0x42);
    EXPECT_EQ(nm.load(amap::slice0Base + 100, 1), 0x42u);
}

TEST(NodeMemory, ExternalDelegation)
{
    CMem cm;
    FlatMemory ext;
    NodeMemory nm(cm, &ext);
    nm.store(amap::dramBase, 0x77, 1);
    EXPECT_EQ(ext.load(amap::dramBase, 1), 0x77u);
    Addr raddr = amap::encodeRemote(2, 3, 0x10);
    nm.store(raddr, 0x99, 1);
    EXPECT_EQ(nm.load(raddr, 1), 0x99u);
}

TEST(NodeMemoryDeath, NoExternalPortPanics)
{
    CMem cm;
    NodeMemory nm(cm);
    EXPECT_DEATH(nm.load(amap::dramBase, 4), "no external port");
}

TEST(NodeMemoryDeath, DmemOverrunPanics)
{
    CMem cm;
    NodeMemory nm(cm);
    EXPECT_DEATH(nm.load(amap::dmemSize - 2, 4), "assertion failed");
}
