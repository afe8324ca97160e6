/**
 * @file
 * The sparse store of 256-bit rows that LoadRow.RC / StoreRow.RC
 * go through. Single-node simulations use it as the stand-in for
 * "transposed ifmap vectors staged in DRAM / delivered by a
 * neighbour node": LoadRow.RC fetches rows from here and
 * StoreRow.RC deposits rows here.
 */

#ifndef MAICC_MEM_ROW_STORE_HH
#define MAICC_MEM_ROW_STORE_HH

#include <unordered_map>

#include "common/types.hh"
#include "sram/bitvec.hh"

namespace maicc
{

/** Sparse Addr -> Row256 map behind LoadRow.RC / StoreRow.RC. */
class RowStore
{
  public:
    Row256 loadRow(Addr addr);
    void storeRow(Addr addr, const Row256 &row);

    /** Number of distinct rows present. */
    size_t size() const { return rows.size(); }

    bool contains(Addr addr) const { return rows.count(addr) != 0; }

    uint64_t loadCount() const { return loads; }
    uint64_t storeCount() const { return stores; }

  private:
    std::unordered_map<Addr, Row256> rows;
    uint64_t loads = 0;
    uint64_t stores = 0;
};

} // namespace maicc

#endif // MAICC_MEM_ROW_STORE_HH
