#include "util/sparse_bitset.hh"

#include <algorithm>

#include "util/bitvec.hh"
#include "util/logging.hh"

namespace pcause
{

SparseBitset::SparseBitset(std::size_t universe_bits)
    : universeBits(universe_bits)
{
}

SparseBitset::SparseBitset(std::size_t universe_bits,
                           std::vector<std::uint32_t> positions)
    : universeBits(universe_bits), pos(std::move(positions))
{
    std::sort(pos.begin(), pos.end());
    pos.erase(std::unique(pos.begin(), pos.end()), pos.end());
    PC_ASSERT(pos.empty() || pos.back() < universeBits,
              "SparseBitset position beyond universe");
}

SparseBitset
SparseBitset::fromBitVec(const BitVec &bv)
{
    SparseBitset out(bv.size());
    for (auto p : bv.setBits())
        out.pos.push_back(static_cast<std::uint32_t>(p));
    return out;
}

BitVec
toBitVec(const SparseView &view)
{
    BitVec out(static_cast<std::size_t>(view.universe));
    for (std::size_t i = 0; i < view.count; ++i)
        out.set(view.positions[i]);
    return out;
}

BitVec
SparseBitset::toBitVec() const
{
    return pcause::toBitVec(SparseView{pos.data(), pos.size(), universeBits});
}

bool
SparseBitset::contains(std::uint32_t p) const
{
    return std::binary_search(pos.begin(), pos.end(), p);
}

void
SparseBitset::insert(std::uint32_t p)
{
    PC_ASSERT(p < universeBits, "SparseBitset::insert beyond universe");
    auto it = std::lower_bound(pos.begin(), pos.end(), p);
    if (it == pos.end() || *it != p)
        pos.insert(it, p);
}

SparseBitset
SparseBitset::intersect(const SparseBitset &other) const
{
    PC_ASSERT(universeBits == other.universeBits,
              "SparseBitset universe mismatch");
    SparseBitset out(universeBits);
    std::set_intersection(pos.begin(), pos.end(),
                          other.pos.begin(), other.pos.end(),
                          std::back_inserter(out.pos));
    return out;
}

SparseBitset
SparseBitset::unite(const SparseBitset &other) const
{
    PC_ASSERT(universeBits == other.universeBits,
              "SparseBitset universe mismatch");
    SparseBitset out(universeBits);
    std::set_union(pos.begin(), pos.end(),
                   other.pos.begin(), other.pos.end(),
                   std::back_inserter(out.pos));
    return out;
}

std::size_t
SparseBitset::intersectCount(const SparseBitset &other) const
{
    PC_ASSERT(universeBits == other.universeBits,
              "SparseBitset universe mismatch");
    std::size_t n = 0;
    auto a = pos.begin();
    auto b = other.pos.begin();
    while (a != pos.end() && b != other.pos.end()) {
        if (*a < *b) {
            ++a;
        } else if (*b < *a) {
            ++b;
        } else {
            ++n;
            ++a;
            ++b;
        }
    }
    return n;
}

std::size_t
SparseBitset::differenceCount(const SparseBitset &other) const
{
    return count() - intersectCount(other);
}

bool
SparseBitset::isSubsetOf(const SparseBitset &other) const
{
    return intersectCount(other) == count();
}

} // namespace pcause
