/**
 * @file
 * The local memory system of one MAICC node: 4 KB data memory plus
 * the byte-addressed window onto CMem slice 0 (Fig. 5). Non-local
 * accesses (remote cores, DRAM) go to an attached flat backing
 * store, the standalone stand-in for the NoC in single-node runs.
 *
 * Both classes are final and serve their common case inline: the
 * scalar core issues a load or store every few instructions, and
 * the executor calls these directly (no virtual interface).
 */

#ifndef MAICC_MEM_NODE_MEMORY_HH
#define MAICC_MEM_NODE_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "cmem/cmem.hh"
#include "common/logging.hh"
#include "mem/address_map.hh"

namespace maicc
{

namespace detail
{

/** Little-endian read of @p bytes (1, 2 or 4) at @p p. */
inline uint32_t
loadLE(const uint8_t *p, unsigned bytes)
{
    uint32_t v = p[0];
    if (bytes >= 2)
        v |= uint32_t(p[1]) << 8;
    if (bytes == 4)
        v |= uint32_t(p[2]) << 16 | uint32_t(p[3]) << 24;
    return v;
}

/** Little-endian write of the low @p bytes (1, 2 or 4) of @p v. */
inline void
storeLE(uint8_t *p, uint32_t v, unsigned bytes)
{
    p[0] = uint8_t(v);
    if (bytes >= 2)
        p[1] = uint8_t(v >> 8);
    if (bytes == 4) {
        p[2] = uint8_t(v >> 16);
        p[3] = uint8_t(v >> 24);
    }
}

inline void
checkAccessSize(unsigned bytes)
{
    maicc_assert(bytes == 1 || bytes == 2 || bytes == 4);
}

} // namespace detail

/**
 * A flat sparse 32-bit byte-addressable memory. Used as the
 * standalone stand-in for DRAM/remote space in single-node runs and
 * as the backing store of the DRAM model.
 *
 * Storage is 4 KiB pages, zero-filled when a store first touches
 * them; a byte of a page never stored to reads as zero. Byte i of an
 * access lives at addr + i in 32-bit arithmetic, so an access may
 * straddle two pages or wrap from 0xFFFFFFFF to 0. A small
 * direct-mapped cache of page pointers, indexed by a multiplicative
 * hash of the page number, serves repeated accesses to a handful of
 * pages (the scalar conv alternates ifmap and filter pages) without
 * a hash-map lookup: an in-page access whose page is cached is
 * served inline, everything else (cache miss, absent page,
 * straddle, wrap) out of line.
 */
class FlatMemory final
{
  public:
    FlatMemory() = default;
    // The page cache points into the pages this object owns.
    FlatMemory(const FlatMemory &) = delete;
    FlatMemory &operator=(const FlatMemory &) = delete;

    /** Load @p bytes (1, 2, or 4) at @p addr, zero-extended. */
    uint32_t
    load(Addr addr, unsigned bytes)
    {
        detail::checkAccessSize(bytes);
        if (const uint8_t *p = cachedInPage(addr, bytes))
            return detail::loadLE(p, bytes);
        return loadSlow(addr, bytes);
    }

    /** Store the low @p bytes of @p value at @p addr. */
    void
    store(Addr addr, uint32_t value, unsigned bytes)
    {
        detail::checkAccessSize(bytes);
        if (uint8_t *p = cachedInPage(addr, bytes))
            detail::storeLE(p, value, bytes);
        else
            storeSlow(addr, value, bytes);
    }

    uint8_t peek(Addr addr) const;
    void poke(Addr addr, uint8_t value);

  private:
    static constexpr unsigned kPageBits = 12;
    static constexpr Addr kPageBytes = Addr(1) << kPageBits;
    static constexpr unsigned kCacheBits = 6;
    using Page = std::array<uint8_t, kPageBytes>;

    struct CacheEntry
    {
        Addr pageNum = ~Addr(0); ///< no page number is all ones
        uint8_t *page = nullptr;
    };
    static unsigned
    cacheIndex(Addr page_num)
    {
        return (page_num * 0x9E3779B1u) >> (32 - kCacheBits);
    }

    /**
     * Byte @p addr in its cached page when the whole access stays
     * in that page; nullptr otherwise.
     */
    uint8_t *
    cachedInPage(Addr addr, unsigned bytes)
    {
        Addr off = addr & (kPageBytes - 1);
        if (off + bytes > kPageBytes)
            return nullptr;
        Addr num = addr >> kPageBits;
        const CacheEntry &e = cache[cacheIndex(num)];
        return e.pageNum == num ? e.page + off : nullptr;
    }

    uint32_t loadSlow(Addr addr, unsigned bytes);
    void storeSlow(Addr addr, uint32_t value, unsigned bytes);

    /** The page holding @p addr, or nullptr if never stored to. */
    const uint8_t *findPage(Addr addr);
    /** The page holding @p addr, created zero-filled if absent. */
    uint8_t *touchPage(Addr addr);

    std::unordered_map<Addr, std::unique_ptr<Page>> pages;
    std::array<CacheEntry, 1u << kCacheBits> cache;
};

/**
 * Per-node memory front-end implementing the Table 1 map. Local
 * dmem is served inline, slice 0 out of line; anything else goes
 * to @c external, and panics when there is none.
 */
class NodeMemory final
{
  public:
    explicit NodeMemory(CMem &cmem, FlatMemory *external = nullptr);

    /** Load @p bytes (1, 2, or 4) at @p addr, zero-extended. */
    uint32_t
    load(Addr addr, unsigned bytes)
    {
        detail::checkAccessSize(bytes);
        if (amap::isLocalDmem(addr)) {
            maicc_assert(addr + bytes <= amap::dmemSize);
            return detail::loadLE(&dmem[addr], bytes);
        }
        if (external && !amap::isLocalSlice0(addr))
            return external->load(addr, bytes);
        return loadSlice0(addr, bytes);
    }

    /** Store the low @p bytes of @p value at @p addr. */
    void
    store(Addr addr, uint32_t value, unsigned bytes)
    {
        detail::checkAccessSize(bytes);
        if (amap::isLocalDmem(addr)) {
            maicc_assert(addr + bytes <= amap::dmemSize);
            detail::storeLE(&dmem[addr], value, bytes);
        } else if (external && !amap::isLocalSlice0(addr)) {
            external->store(addr, value, bytes);
        } else {
            storeSlice0(addr, value, bytes);
        }
    }

    /** Direct access to the data-memory bytes (for test setup). */
    uint8_t peekDmem(Addr offset) const;
    void pokeDmem(Addr offset, uint8_t value);

  private:
    /** Slice-0 window access; panics on any other address (a
     * non-local access with no external store). */
    uint32_t loadSlice0(Addr addr, unsigned bytes);
    void storeSlice0(Addr addr, uint32_t value, unsigned bytes);

    CMem &cmem;
    FlatMemory *external;
    std::array<uint8_t, amap::dmemSize> dmem{};
};

} // namespace maicc

#endif // MAICC_MEM_NODE_MEMORY_HH
