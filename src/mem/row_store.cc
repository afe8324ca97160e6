#include "mem/row_store.hh"

namespace maicc
{

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
