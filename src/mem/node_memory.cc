#include "mem/node_memory.hh"

#include "common/logging.hh"

namespace maicc
{

const uint8_t *
FlatMemory::findPage(Addr addr)
{
    Addr num = addr >> kPageBits;
    CacheEntry &e = cache[cacheIndex(num)];
    if (e.pageNum == num)
        return e.page;
    auto it = pages.find(num);
    if (it == pages.end())
        return nullptr; // absent pages are not cached
    e = {num, it->second->data()};
    return e.page;
}

uint8_t *
FlatMemory::touchPage(Addr addr)
{
    Addr num = addr >> kPageBits;
    CacheEntry &e = cache[cacheIndex(num)];
    if (e.pageNum == num)
        return e.page;
    auto &page = pages[num];
    if (!page)
        page = std::make_unique<Page>(); // value-initialised: zeros
    e = {num, page->data()};
    return e.page;
}

uint32_t
FlatMemory::load(Addr addr, unsigned bytes)
{
    maicc_assert(bytes == 1 || bytes == 2 || bytes == 4);
    Addr off = addr & (kPageBytes - 1);
    uint32_t v = 0;
    if (off + bytes <= kPageBytes) {
        if (const uint8_t *p = findPage(addr)) {
            for (unsigned i = 0; i < bytes; ++i)
                v |= static_cast<uint32_t>(p[off + i]) << (8 * i);
        }
        return v;
    }
    // Straddles a page boundary (or wraps at 2^32): byte by byte.
    for (unsigned i = 0; i < bytes; ++i) {
        const uint8_t *p = findPage(addr + i);
        uint8_t byte = p ? p[(addr + i) & (kPageBytes - 1)] : 0;
        v |= static_cast<uint32_t>(byte) << (8 * i);
    }
    return v;
}

void
FlatMemory::store(Addr addr, uint32_t value, unsigned bytes)
{
    maicc_assert(bytes == 1 || bytes == 2 || bytes == 4);
    Addr off = addr & (kPageBytes - 1);
    if (off + bytes <= kPageBytes) {
        uint8_t *p = touchPage(addr);
        for (unsigned i = 0; i < bytes; ++i)
            p[off + i] = static_cast<uint8_t>(value >> (8 * i));
        return;
    }
    for (unsigned i = 0; i < bytes; ++i)
        poke(addr + i, static_cast<uint8_t>(value >> (8 * i)));
}

uint8_t
FlatMemory::peek(Addr addr) const
{
    auto it = pages.find(addr >> kPageBits);
    return it == pages.end() ? 0
                             : (*it->second)[addr & (kPageBytes - 1)];
}

void
FlatMemory::poke(Addr addr, uint8_t value)
{
    touchPage(addr)[addr & (kPageBytes - 1)] = value;
}

NodeMemory::NodeMemory(CMem &cm, rv32::MemIf *ext)
    : cmem(cm), external(ext), dmem(amap::dmemSize, 0)
{
}

uint32_t
NodeMemory::load(Addr addr, unsigned bytes)
{
    maicc_assert(bytes == 1 || bytes == 2 || bytes == 4);
    if (amap::isLocalDmem(addr)) {
        maicc_assert(addr + bytes <= amap::dmemSize);
        uint32_t v = 0;
        for (unsigned i = 0; i < bytes; ++i)
            v |= static_cast<uint32_t>(dmem[addr + i]) << (8 * i);
        return v;
    }
    if (amap::isLocalSlice0(addr)) {
        unsigned off = addr - amap::slice0Base;
        maicc_assert(off + bytes <= amap::slice0Size);
        uint32_t v = 0;
        for (unsigned i = 0; i < bytes; ++i)
            v |= static_cast<uint32_t>(cmem.loadByte(off + i))
                << (8 * i);
        return v;
    }
    if (!external)
        maicc_panic("non-local load 0x%08x with no external port",
                    addr);
    return external->load(addr, bytes);
}

void
NodeMemory::store(Addr addr, uint32_t value, unsigned bytes)
{
    maicc_assert(bytes == 1 || bytes == 2 || bytes == 4);
    if (amap::isLocalDmem(addr)) {
        maicc_assert(addr + bytes <= amap::dmemSize);
        for (unsigned i = 0; i < bytes; ++i)
            dmem[addr + i] = static_cast<uint8_t>(value >> (8 * i));
        return;
    }
    if (amap::isLocalSlice0(addr)) {
        unsigned off = addr - amap::slice0Base;
        maicc_assert(off + bytes <= amap::slice0Size);
        for (unsigned i = 0; i < bytes; ++i)
            cmem.storeByte(off + i,
                           static_cast<uint8_t>(value >> (8 * i)));
        return;
    }
    if (!external)
        maicc_panic("non-local store 0x%08x with no external port",
                    addr);
    external->store(addr, value, bytes);
}

uint8_t
NodeMemory::peekDmem(Addr offset) const
{
    maicc_assert(offset < amap::dmemSize);
    return dmem[offset];
}

void
NodeMemory::pokeDmem(Addr offset, uint8_t value)
{
    maicc_assert(offset < amap::dmemSize);
    dmem[offset] = value;
}

} // namespace maicc
