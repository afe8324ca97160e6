/**
 * @file
 * The row-granularity remote port LoadRow.RC / StoreRow.RC go
 * through, and a sparse store of 256-bit rows behind it. Single-node
 * simulations use the store as the stand-in for "transposed ifmap
 * vectors staged in DRAM / delivered by a neighbour node":
 * LoadRow.RC fetches rows from here and StoreRow.RC deposits rows
 * here.
 */

#ifndef MAICC_MEM_ROW_STORE_HH
#define MAICC_MEM_ROW_STORE_HH

#include <unordered_map>

#include "common/types.hh"
#include "sram/bitvec.hh"

namespace maicc
{

/** Row-granularity remote port for LoadRow.RC / StoreRow.RC. */
class RowPortIf
{
  public:
    virtual ~RowPortIf() = default;
    virtual Row256 loadRow(Addr remote_addr) = 0;
    virtual void storeRow(Addr remote_addr, const Row256 &row) = 0;
};

/** A RowPortIf that rejects every access (nodes with no NoC). */
class NullRowPort : public RowPortIf
{
  public:
    Row256 loadRow(Addr) override;
    void storeRow(Addr, const Row256 &) override;
};

/** Sparse Addr -> Row256 map implementing RowPortIf. */
class RowStore : public RowPortIf
{
  public:
    Row256 loadRow(Addr addr) override;
    void storeRow(Addr addr, const Row256 &row) override;

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
