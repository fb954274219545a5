/**
 * @file
 * Unit tests for core/mapped_store — querying a v3 database file in
 * place: verdict equivalence with the in-memory FingerprintStore,
 * accessor fidelity, and hostile-input rejection at open.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/mapped_store.hh"
#include "core/serialize.hh"
#include "core/store.hh"
#include "tests/legacy_streams.hh"
#include "util/rng.hh"

namespace pcause
{
namespace
{

constexpr std::size_t universeBits = 4096;
constexpr std::size_t fingerprintWeight = 64;
constexpr std::size_t noiseBits = 16;

/** Random weight-fingerprintWeight pattern. */
BitVec
randomFingerprint(Rng &rng)
{
    BitVec v(universeBits);
    while (v.popcount() < fingerprintWeight)
        v.set(rng.nextBelow(universeBits));
    return v;
}

/** @p base with noiseBits extra random bits (a noisy observation). */
BitVec
noisyObservation(const BitVec &base, Rng &rng)
{
    BitVec v = base;
    for (std::size_t i = 0; i < noiseBits; ++i)
        v.set(rng.nextBelow(universeBits));
    return v;
}

/** A small indexed population with deterministic contents. */
FingerprintStore
makeStore(std::size_t n, std::uint64_t seed = 42)
{
    Rng rng(seed);
    FingerprintStore store;
    for (std::size_t i = 0; i < n; ++i) {
        store.add("chip-" + std::to_string(i),
                  Fingerprint(randomFingerprint(rng)));
    }
    return store;
}

/** Save @p store to a fresh temp v3 file; returns the path. */
std::string
saveTemp(const FingerprintStore &store, const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    EXPECT_TRUE(saveStore(store, path));
    return path;
}

/** Raw bytes of file @p path. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Write @p bytes to @p path (truncating). */
void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(MappedStore, ServesRecordsInPlace)
{
    const FingerprintStore store = makeStore(10);
    const std::string path = saveTemp(store, "pc_mapped_basic.pcdb");

    const LoadResult<MappedStore> mapped = MappedStore::open(path);
    ASSERT_TRUE(mapped) << mapped.error;
    EXPECT_EQ(mapped->size(), store.size());
    EXPECT_EQ(mapped->indexParams(), store.indexParams());

    for (std::size_t i = 0; i < store.size(); ++i) {
        EXPECT_EQ(mapped->label(i), store.label(i));
        EXPECT_EQ(mapped->sources(i), store.sources(i));
        EXPECT_EQ(mapped->signature(i), store.signature(i));

        const SparseView mv = mapped->view(i);
        const SparseView sv = store.sparseFingerprints().view(i);
        ASSERT_EQ(mv.count, sv.count);
        EXPECT_EQ(mv.universe, sv.universe);
        for (std::size_t p = 0; p < mv.count; ++p)
            EXPECT_EQ(mv.positions[p], sv.positions[p]);
    }
    std::remove(path.c_str());
}

TEST(MappedStore, VerdictsMatchInMemoryStore)
{
    const FingerprintStore store = makeStore(50);
    const std::string path = saveTemp(store, "pc_mapped_query.pcdb");
    const LoadResult<MappedStore> mapped = MappedStore::open(path);
    ASSERT_TRUE(mapped) << mapped.error;

    Rng rng(7);
    for (std::size_t i = 0; i < store.size(); i += 7) {
        const BitVec es = noisyObservation(
            store.fingerprint(i).bits(), rng);
        const IdentifyResult want = store.query(es);
        const IdentifyResult got = mapped->query(es);
        ASSERT_EQ(got.match.has_value(), want.match.has_value());
        if (want.match) {
            EXPECT_EQ(*got.match, *want.match);
            EXPECT_EQ(got.bestDistance, want.bestDistance);
        }
    }

    // An unknown chip must be rejected by both paths.
    const BitVec stranger = randomFingerprint(rng);
    EXPECT_FALSE(mapped->query(stranger).match.has_value());
    EXPECT_FALSE(store.query(stranger).match.has_value());

    // queryLinear agrees too (and reports database-size counters).
    AttackStats stats;
    const BitVec es0 =
        noisyObservation(store.fingerprint(0).bits(), rng);
    const IdentifyResult lin = mapped->queryLinear(es0, {}, &stats);
    ASSERT_TRUE(lin.match.has_value());
    EXPECT_EQ(*lin.match, *store.queryLinear(es0).match);
    EXPECT_EQ(stats.recordsAvailable, store.size());

    std::remove(path.c_str());
}

TEST(MappedStore, CandidatesMatchInMemoryIndex)
{
    const FingerprintStore store = makeStore(40);
    const std::string path = saveTemp(store, "pc_mapped_cand.pcdb");
    const LoadResult<MappedStore> mapped = MappedStore::open(path);
    ASSERT_TRUE(mapped) << mapped.error;

    Rng rng(11);
    for (std::size_t i = 0; i < store.size(); i += 5) {
        const BitVec es = noisyObservation(
            store.fingerprint(i).bits(), rng);
        const MinHashSketch sketch =
            minhashSketch(es, store.indexParams());
        EXPECT_EQ(mapped->candidates(sketch),
                  store.index().candidates(sketch));
    }
    std::remove(path.c_str());
}

TEST(MappedStore, EmptyStoreMapsAndRejectsEverything)
{
    const FingerprintStore store;
    const std::string path = saveTemp(store, "pc_mapped_empty.pcdb");
    const LoadResult<MappedStore> mapped = MappedStore::open(path);
    ASSERT_TRUE(mapped) << mapped.error;
    EXPECT_EQ(mapped->size(), 0u);

    BitVec es(universeBits);
    es.set(1);
    EXPECT_FALSE(mapped->query(es).match.has_value());
    std::remove(path.c_str());
}

TEST(MappedStore, EveryPrefixFailsToOpen)
{
    // A file shorter than its header claims must never open —
    // exhaustively, for every strict prefix of a small database.
    const FingerprintStore store = makeStore(2);
    const std::string path = saveTemp(store, "pc_mapped_trunc.pcdb");
    const std::string bytes = slurp(path);
    ASSERT_FALSE(bytes.empty());

    const std::string cut_path =
        ::testing::TempDir() + "pc_mapped_trunc_cut.pcdb";
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        spit(cut_path, bytes.substr(0, cut));
        const LoadResult<MappedStore> r = MappedStore::open(cut_path);
        ASSERT_FALSE(r) << "prefix of " << cut << " of "
                        << bytes.size() << " bytes opened";
        ASSERT_FALSE(r.error.empty());
    }
    std::remove(path.c_str());
    std::remove(cut_path.c_str());
}

TEST(MappedStore, CorruptHeadersAreRejected)
{
    const FingerprintStore store = makeStore(3);
    const std::string path = saveTemp(store, "pc_mapped_evil.pcdb");
    const std::string good = slurp(path);
    const std::string evil_path =
        ::testing::TempDir() + "pc_mapped_evil_mut.pcdb";

    const auto rejects = [&](std::size_t off, char value,
                             const char *what) {
        std::string bytes = good;
        bytes[off] = value;
        spit(evil_path, bytes);
        const LoadResult<MappedStore> r = MappedStore::open(evil_path);
        EXPECT_FALSE(r) << what;
        EXPECT_FALSE(r.error.empty()) << what;
    };
    rejects(0, 'X', "bad magic");
    rejects(4, 2, "v2 version field (stream loader's job)");
    rejects(4, 9, "unknown version");
    rejects(32, char(store.size() + 1), "inflated record count");
    rejects(56, 1, "file size mismatch");
    rejects(72, 1, "non-canonical signature offset");
    // Record 2's universe, 4096 -> 8192 (byte 1 of its u64 field):
    // every record must span one universe, since the scan kernels
    // read the query's words at each stored position.
    static_assert(universeBits == 0x1000);
    rejects(pcdb::v3HeaderBytes + 2 * pcdb::v3RecordEntryBytes + 17,
            0x20, "record of a different universe width");

    // Appending trailing garbage breaks the fileSize == mapping
    // length invariant.
    spit(evil_path, good + "garbage");
    EXPECT_FALSE(MappedStore::open(evil_path));

    // The unmodified original still opens.
    spit(evil_path, good);
    EXPECT_TRUE(MappedStore::open(evil_path));

    std::remove(path.c_str());
    std::remove(evil_path.c_str());
}

TEST(MappedStore, V2FilesAreRejectedWithAClearError)
{
    // A one-record v2 stream: long enough to pass the v3 header
    // length check, so open() must refuse it for its version and
    // point at the stream loader, which still reads it.
    FingerprintDb db;
    BitVec v(256);
    v.set(3);
    db.add("chip", Fingerprint(v));
    const std::string bytes = legacy::v2Stream(db);
    ASSERT_GE(bytes.size(), pcdb::v3HeaderBytes);
    const std::string path =
        ::testing::TempDir() + "pc_mapped_v2.pcdb";
    spit(path, bytes);
    ASSERT_TRUE(loadStore(path));
    const LoadResult<MappedStore> r = MappedStore::open(path);
    EXPECT_FALSE(r);
    EXPECT_NE(r.error.find("not a v3 database (use loadStore"),
              std::string::npos)
        << r.error;
    std::remove(path.c_str());
}

TEST(MappedStore, MissingFileIsRecoverable)
{
    const LoadResult<MappedStore> r =
        MappedStore::open("/no/such/file.pcdb");
    EXPECT_FALSE(r);
    EXPECT_FALSE(r.error.empty());
}

} // anonymous namespace
} // namespace pcause
