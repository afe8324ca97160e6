#include "mem/node_memory.hh"

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
FlatMemory::loadSlow(Addr addr, unsigned bytes)
{
    Addr off = addr & (kPageBytes - 1);
    if (off + bytes <= kPageBytes) {
        const uint8_t *p = findPage(addr);
        return p ? detail::loadLE(p + off, bytes) : 0;
    }
    // Straddles a page boundary (or wraps at 2^32): byte by byte.
    uint32_t v = 0;
    for (unsigned i = 0; i < bytes; ++i) {
        const uint8_t *p = findPage(addr + i);
        uint8_t byte = p ? p[(addr + i) & (kPageBytes - 1)] : 0;
        v |= static_cast<uint32_t>(byte) << (8 * i);
    }
    return v;
}

void
FlatMemory::storeSlow(Addr addr, uint32_t value, unsigned bytes)
{
    Addr off = addr & (kPageBytes - 1);
    if (off + bytes <= kPageBytes) {
        detail::storeLE(touchPage(addr) + off, value, bytes);
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

NodeMemory::NodeMemory(CMem &cm, FlatMemory *ext)
    : cmem(cm), external(ext)
{
}

uint32_t
NodeMemory::loadSlice0(Addr addr, unsigned bytes)
{
    if (!amap::isLocalSlice0(addr))
        maicc_panic("non-local load 0x%08x with no external port",
                    addr);
    unsigned off = addr - amap::slice0Base;
    maicc_assert(off + bytes <= amap::slice0Size);
    uint32_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<uint32_t>(cmem.loadByte(off + i)) << (8 * i);
    return v;
}

void
NodeMemory::storeSlice0(Addr addr, uint32_t value, unsigned bytes)
{
    if (!amap::isLocalSlice0(addr))
        maicc_panic("non-local store 0x%08x with no external port",
                    addr);
    unsigned off = addr - amap::slice0Base;
    maicc_assert(off + bytes <= amap::slice0Size);
    for (unsigned i = 0; i < bytes; ++i)
        cmem.storeByte(off + i, static_cast<uint8_t>(value >> (8 * i)));
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
