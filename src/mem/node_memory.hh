/**
 * @file
 * The local memory system of one MAICC node: 4 KB data memory plus
 * the byte-addressed window onto CMem slice 0 (Fig. 5). Non-local
 * accesses (remote cores, DRAM) are delegated to an attached
 * handler; standalone single-node simulations attach a flat backing
 * store instead of a NoC.
 */

#ifndef MAICC_MEM_NODE_MEMORY_HH
#define MAICC_MEM_NODE_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cmem/cmem.hh"
#include "mem/address_map.hh"
#include "rv32/executor.hh"

namespace maicc
{

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
 * a hash-map lookup.
 */
class FlatMemory : public rv32::MemIf
{
  public:
    FlatMemory() = default;
    // The page cache points into the pages this object owns.
    FlatMemory(const FlatMemory &) = delete;
    FlatMemory &operator=(const FlatMemory &) = delete;

    uint32_t load(Addr addr, unsigned bytes) override;
    void store(Addr addr, uint32_t value, unsigned bytes) override;

    uint8_t peek(Addr addr) const;
    void poke(Addr addr, uint8_t value);

  private:
    static constexpr unsigned kPageBits = 12;
    static constexpr Addr kPageBytes = Addr(1) << kPageBits;
    static constexpr unsigned kCacheBits = 6;
    using Page = std::array<uint8_t, kPageBytes>;

    /** The page holding @p addr, or nullptr if never stored to. */
    const uint8_t *findPage(Addr addr);
    /** The page holding @p addr, created zero-filled if absent. */
    uint8_t *touchPage(Addr addr);

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

    std::unordered_map<Addr, std::unique_ptr<Page>> pages;
    std::array<CacheEntry, 1u << kCacheBits> cache;
};

/**
 * Per-node memory front-end implementing the Table 1 map. Local
 * dmem and slice 0 are served here; anything else goes to
 * @c external (which may be a FlatMemory stub or the NoC bridge).
 */
class NodeMemory : public rv32::MemIf
{
  public:
    NodeMemory(CMem &cmem, rv32::MemIf *external = nullptr);

    uint32_t load(Addr addr, unsigned bytes) override;
    void store(Addr addr, uint32_t value, unsigned bytes) override;

    /** Direct access to the data-memory bytes (for test setup). */
    uint8_t peekDmem(Addr offset) const;
    void pokeDmem(Addr offset, uint8_t value);

    void setExternal(rv32::MemIf *ext) { external = ext; }

  private:
    CMem &cmem;
    rv32::MemIf *external;
    std::vector<uint8_t> dmem;
};

} // namespace maicc

#endif // MAICC_MEM_NODE_MEMORY_HH
