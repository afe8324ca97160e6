#include "mapping/placement.hh"

#include <algorithm>

#include "common/logging.hh"

namespace maicc
{

NodeCoord
ArrayGeometry::serpentine(unsigned idx) const
{
    maicc_assert(idx < computeNodes());
    int row = idx / computeW;
    int col = idx % computeW;
    int x = (row % 2 == 0) ? computeX0 + col
                           : computeX0 + computeW - 1 - col;
    return {x, computeY0 + row};
}

NodeCoord
ArrayGeometry::llcForChannel(unsigned ch) const
{
    maicc_assert(ch < 2u * meshW);
    if (ch < static_cast<unsigned>(meshW))
        return {static_cast<int>(ch), 0};
    return {static_cast<int>(ch) - meshW, meshH - 1};
}

std::vector<const PlacedNode *>
SegmentPlacement::layerNodes(size_t layer) const
{
    std::vector<const PlacedNode *> out;
    for (const auto &n : nodes) {
        if (n.layerIdx == layer)
            out.push_back(&n);
    }
    return out;
}

RegionAllocator::RegionAllocator(const ArrayGeometry &geo)
    : _geo(geo), _used(geo.computeNodes(), false),
      _dead(geo.computeNodes(), false), _free(geo.computeNodes()),
      _longest_possible(geo.computeNodes())
{
}

std::vector<unsigned>
RegionAllocator::allocateContiguous(unsigned count)
{
    std::vector<unsigned> slots;
    if (count == 0 || count > _free)
        return slots;

    // First fit: the lowest contiguous serpentine run of length
    // >= count. No fallback — under fragmentation the caller must
    // decide (shrink the grant, or wait for a completion to
    // re-coalesce the region).
    unsigned run = 0;
    for (unsigned i = 0; i < _used.size(); ++i) {
        run = _used[i] ? 0 : run + 1;
        if (run == count) {
            slots.reserve(count);
            for (unsigned s = i + 1 - count; s <= i; ++s)
                slots.push_back(s);
            break;
        }
    }
    for (unsigned s : slots) {
        _used[s] = true;
        --_free;
    }
    return slots;
}

unsigned
RegionAllocator::longestFreeRun() const
{
    unsigned best = 0, run = 0;
    for (unsigned i = 0; i < _used.size(); ++i) {
        run = _used[i] ? 0 : run + 1;
        best = std::max(best, run);
    }
    return best;
}

void
RegionAllocator::release(const std::vector<unsigned> &slots)
{
    for (unsigned s : slots) {
        maicc_assert(_used.at(s));
        maicc_assert(!_dead.at(s));
        _used[s] = false;
        ++_free;
    }
}

void
RegionAllocator::markDead(unsigned slot)
{
    maicc_assert(slot < _used.size());
    if (_dead[slot])
        return;
    // The serving layer displaces any batch occupying the victim
    // first, so the slot is free here; marking it used-forever is
    // what makes every existing walk (allocateContiguous,
    // longestFreeRun) coalesce around it with no extra cases.
    maicc_assert(!_used[slot]);
    _used[slot] = true;
    _dead[slot] = true;
    ++_dead_count;
    --_free;
    unsigned run = 0;
    _longest_possible = 0;
    for (unsigned i = 0; i < _dead.size(); ++i) {
        run = _dead[i] ? 0 : run + 1;
        _longest_possible = std::max(_longest_possible, run);
    }
}

SegmentPlacement
placeSegment(const Segment &seg, const ArrayGeometry &geo)
{
    SegmentPlacement placement;
    unsigned pos = 0;
    for (const auto &lm : seg.layers) {
        // Data-collection core leads its chain.
        placement.nodes.push_back(
            {geo.serpentine(pos++), lm.layerIdx,
             NodeRole::DataCollect, 0});
        for (unsigned c = 0; c < lm.alloc.computeCores; ++c) {
            placement.nodes.push_back({geo.serpentine(pos++),
                                       lm.layerIdx,
                                       NodeRole::Compute, c});
        }
        for (unsigned m = 0; m + 1 < lm.alloc.auxCores; ++m) {
            placement.nodes.push_back({geo.serpentine(pos++),
                                       lm.layerIdx, NodeRole::Merge,
                                       m});
        }
    }
    maicc_assert(pos <= geo.computeNodes());
    return placement;
}

std::string
placementSignature(const SegmentPlacement &p)
{
    // A readable, separator-delimited encoding rather than raw
    // bytes: signatures end up inside timing-cache key material,
    // where an unambiguous text form makes collisions impossible to
    // create by field-boundary aliasing and easy to debug by eye.
    std::string sig;
    sig.reserve(p.nodes.size() * 16);
    for (const auto &n : p.nodes) {
        sig += std::to_string(n.coord.x);
        sig += ',';
        sig += std::to_string(n.coord.y);
        sig += ',';
        sig += std::to_string(n.layerIdx);
        sig += ',';
        sig += std::to_string(static_cast<int>(n.role));
        sig += ',';
        sig += std::to_string(n.chainPos);
        sig += ';';
    }
    return sig;
}

} // namespace maicc
