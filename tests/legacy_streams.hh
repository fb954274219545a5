/**
 * @file
 * Hand-crafted PCDB v1 and v2 streams, the read-only legacy formats
 * loadStore() still reads (see core/serialize.hh): the one place the
 * tests spell out their byte layout.
 */

#ifndef PCAUSE_TESTS_LEGACY_STREAMS_HH
#define PCAUSE_TESTS_LEGACY_STREAMS_HH

#include <sstream>
#include <vector>

#include "core/identify.hh"
#include "core/minhash.hh"

namespace pcause::legacy
{

template <typename T>
void
put(std::ostream &out, T value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(value));
}

/** "PCDB", @p version, [v2: the MinHash header @p mh], @p count. */
inline void
putHeader(std::ostream &out, std::uint32_t version, std::uint64_t count,
          const MinHashParams &mh = {})
{
    out.write("PCDB", 4);
    put(out, version);
    if (version == 2) {
        put(out, mh.numHashes);
        put(out, mh.bands);
        put(out, mh.seed);
    }
    put(out, count);
}

/** A v1 record: label, sources, universe, positions. */
inline void
putV1Record(std::ostream &out, const std::string &label,
            std::uint32_t sources, std::uint64_t universe,
            const std::vector<std::uint32_t> &positions)
{
    put(out, static_cast<std::uint32_t>(label.size()));
    out.write(label.data(), static_cast<std::streamsize>(label.size()));
    put(out, sources);
    put(out, universe);
    put(out, std::uint64_t{positions.size()});
    for (const std::uint32_t p : positions)
        put(out, p);
}

/** A v2 record: the v1 record plus its MinHash signature under @p mh. */
inline void
putV2Record(std::ostream &out, const std::string &label,
            std::uint32_t sources, std::uint64_t universe,
            const std::vector<std::uint32_t> &positions,
            const MinHashParams &mh = {})
{
    putV1Record(out, label, sources, universe, positions);
    BitVec bits(universe);
    for (const std::uint32_t p : positions)
        bits.set(p);
    for (const std::uint32_t h : minhashSignature(bits, mh))
        put(out, h);
}

/** @p db as a complete v2 stream signed under @p mh. */
inline std::string
v2Stream(const FingerprintDb &db, const MinHashParams &mh = {})
{
    std::stringstream out;
    putHeader(out, 2, db.size(), mh);
    for (std::size_t i = 0; i < db.size(); ++i) {
        const Fingerprint &fp = db.record(i).fingerprint;
        const std::vector<std::size_t> set = fp.bits().setBits();
        const std::vector<std::uint32_t> positions(set.begin(), set.end());
        putV2Record(out, db.record(i).label, fp.sources(),
                    fp.bits().size(), positions, mh);
    }
    return out.str();
}

} // namespace pcause::legacy

#endif // PCAUSE_TESTS_LEGACY_STREAMS_HH
