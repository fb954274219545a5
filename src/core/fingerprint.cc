#include "core/fingerprint.hh"

#include <bit>

#include "util/logging.hh"

namespace pcause
{

Fingerprint::Fingerprint(BitVec first_error_string)
    : pattern(std::move(first_error_string)), numSources(1)
{
}

Fingerprint::Fingerprint(BitVec intersected_pattern,
                         unsigned num_sources)
    : pattern(std::move(intersected_pattern)),
      numSources(num_sources)
{
    PC_ASSERT(num_sources > 0,
              "Fingerprint: adopted pattern needs sources");
}

void
Fingerprint::augment(const BitVec &error_string)
{
    if (numSources == 0) {
        pattern = error_string;
    } else {
        PC_ASSERT(error_string.size() == pattern.size(),
                  "augment: size mismatch");
        pattern &= error_string;
    }
    ++numSources;
}

SparseView
SparseFingerprintArena::view(std::size_t i) const
{
    PC_ASSERT(i < universes.size(),
              "SparseFingerprintArena index out of range");
    SparseView v;
    v.positions = arena.data() + offsets[i];
    v.count = static_cast<std::size_t>(offsets[i + 1] - offsets[i]);
    v.universe = universes[i];
    return v;
}

void
SparseFingerprintArena::add(const BitVec &pattern)
{
    const auto &words = pattern.words();
    for (std::size_t wi = 0; wi < words.size(); ++wi) {
        std::uint64_t w = words[wi];
        while (w) {
            const auto bit = static_cast<std::uint32_t>(
                std::countr_zero(w));
            arena.push_back(static_cast<std::uint32_t>(
                wi * BitVec::wordBits + bit));
            w &= w - 1;
        }
    }
    offsets.push_back(arena.size());
    universes.push_back(pattern.size());
}

} // namespace pcause
