#include "mem/row_store.hh"

#include "common/logging.hh"

namespace maicc
{

Row256
NullRowPort::loadRow(Addr)
{
    maicc_panic("LoadRow.RC executed on a node with no row port");
}

void
NullRowPort::storeRow(Addr, const Row256 &)
{
    maicc_panic("StoreRow.RC executed on a node with no row port");
}

Row256
RowStore::loadRow(Addr addr)
{
    ++loads;
    auto it = rows.find(addr);
    return it == rows.end() ? Row256{} : it->second;
}

void
RowStore::storeRow(Addr addr, const Row256 &row)
{
    ++stores;
    rows[addr] = row;
}

} // namespace maicc
