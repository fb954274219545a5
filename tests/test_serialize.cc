/**
 * @file
 * Unit tests for core/serialize — attacker database persistence:
 * the v3 format written by saveStore, transparent loading of
 * hand-crafted v1 and v2 streams, and the recoverable LoadResult
 * error reporting.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/pcdb_format.hh"
#include "core/serialize.hh"
#include "core/store.hh"
#include "core/wal.hh"
#include "tests/legacy_streams.hh"
#include "util/failpoint.hh"
#include "util/thread_pool.hh"

namespace pcause
{
namespace
{

using legacy::put;
using legacy::putHeader;
using legacy::putV1Record;
using legacy::putV2Record;

Fingerprint
makeFingerprint(std::initializer_list<std::size_t> bits,
                unsigned sources = 1, std::size_t size = 32768)
{
    BitVec v(size);
    for (auto b : bits)
        v.set(b);
    Fingerprint fp(v);
    for (unsigned s = 1; s < sources; ++s)
        fp.augment(v);
    return fp;
}

/** Hand-craft a complete version-1 stream (pre-index format). */
std::string
v1Stream()
{
    std::stringstream buf;
    putHeader(buf, 1, 2); // version 1: no minhash header
    putV1Record(buf, "legacy-a", 3, 32768, {1, 100, 32767});
    putV1Record(buf, "legacy-b", 1, 32768, {5});
    return buf.str();
}

/** Hand-craft a complete version-2 stream (signatures, no LSH). */
std::string
v2Stream()
{
    std::stringstream buf;
    putHeader(buf, 2, 2);
    putV2Record(buf, "chip-alpha", 3, 32768, {1, 100, 32767});
    putV2Record(buf, "chip-beta", 1, 32768, {5});
    return buf.str();
}

/** @p store's records match @p fps / @p labels through every
 *  accessor. */
void
expectRecords(const FingerprintStore &store,
              const std::vector<std::string> &labels,
              const std::vector<Fingerprint> &fps, const char *when)
{
    ASSERT_EQ(store.size(), fps.size()) << when;
    for (std::size_t i = 0; i < fps.size(); ++i) {
        EXPECT_EQ(store.label(i), labels[i]) << when << " record " << i;
        EXPECT_EQ(store.sources(i), fps[i].sources()) << when;
        const Fingerprint back = store.fingerprint(i);
        EXPECT_EQ(back.bits(), fps[i].bits()) << when << " record " << i;
        EXPECT_EQ(back.sources(), fps[i].sources()) << when;
    }
}

TEST(Serialize, RecordsRoundTripExactly)
{
    // label(i), sources(i) and fingerprint(i) read back what went in
    // after add, addBatch, saveStore -> loadStore and WAL replay.
    const std::vector<std::string> labels = {"chip-alpha", "chip-beta",
                                             "chip-gamma"};
    const std::vector<Fingerprint> fps = {
        makeFingerprint({1, 100, 32767}, 3), makeFingerprint({5}, 1),
        makeFingerprint({7, 8, 9, 4096}, 2)};

    // A local pool: the global one would outlive the test and break
    // the fork-based death tests below.
    ThreadPool pool(2);
    FingerprintStore store;
    store.setThreadPool(&pool);
    store.add(labels[0], fps[0]);
    store.addBatch({labels[1], labels[2]}, {fps[1], fps[2]});
    expectRecords(store, labels, fps, "add + addBatch");

    std::stringstream buf;
    ASSERT_TRUE(saveStore(store, buf));
    const StoreLoadResult loaded = loadStore(buf);
    ASSERT_TRUE(loaded) << loaded.error;
    expectRecords(*loaded, labels, fps, "saveStore -> loadStore");

    const std::string wal_path =
        ::testing::TempDir() + "pcause_roundtrip_test.wal";
    {
        LoadResult<Wal> wal = Wal::create(wal_path, 0);
        ASSERT_TRUE(wal) << wal.error;
        for (std::size_t i = 0; i < fps.size(); ++i)
            ASSERT_TRUE(wal->append(labels[i], fps[i]));
    }
    FingerprintStore replayed;
    const LoadResult<WalReplayStats> r = Wal::replay(wal_path, replayed);
    ASSERT_TRUE(r) << r.error;
    EXPECT_EQ(r->applied, fps.size());
    expectRecords(replayed, labels, fps, "WAL replay");
    std::remove(wal_path.c_str());
}

TEST(Serialize, FileRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "pcause_db_test.pcdb";
    FingerprintStore store;
    store.add("disk-chip", makeFingerprint({7, 8, 9}));
    ASSERT_TRUE(saveStore(store, path));
    const StoreLoadResult loaded = loadStore(path);
    ASSERT_TRUE(loaded) << loaded.error;
    ASSERT_EQ(loaded->size(), 1u);
    EXPECT_EQ(loaded->label(0), "disk-chip");
    std::remove(path.c_str());
}

TEST(Serialize, LoadedDatabaseIdentifies)
{
    FingerprintStore store;
    store.add("a", makeFingerprint({10, 20, 30}));
    store.add("b", makeFingerprint({100, 200, 300}));
    std::stringstream buf;
    ASSERT_TRUE(saveStore(store, buf));
    const StoreLoadResult loaded = loadStore(buf);
    ASSERT_TRUE(loaded) << loaded.error;

    BitVec es(32768);
    es.set(100);
    es.set(200);
    es.set(300);
    const IdentifyResult r = loaded->query(es);
    ASSERT_TRUE(r.match.has_value());
    EXPECT_EQ(loaded->label(*r.match), "b");
}

TEST(Serialize, StoreRoundTripKeepsSignaturesAndParams)
{
    MinHashParams custom;
    custom.numHashes = 48;
    custom.bands = 16;
    custom.seed = 0xfeedbeefull;

    FingerprintStore store(custom);
    store.add("alpha", makeFingerprint({1, 100, 32767}, 3));
    store.add("beta", makeFingerprint({5, 6}, 2));

    std::stringstream buf;
    ASSERT_TRUE(saveStore(store, buf));
    const StoreLoadResult loaded = loadStore(buf);
    ASSERT_TRUE(loaded);
    ASSERT_EQ(loaded->size(), 2u);
    EXPECT_EQ(loaded->indexParams(), custom);
    for (std::size_t i = 0; i < store.size(); ++i) {
        EXPECT_EQ(loaded->label(i), store.label(i));
        EXPECT_EQ(loaded->signature(i), store.signature(i));
    }
}

TEST(Serialize, V1LoadsWithRecomputedSignatures)
{
    // A pre-index (version 1) file must load transparently: records
    // intact, signatures recomputed under the store's parameters.
    std::stringstream buf(v1Stream());
    const StoreLoadResult loaded = loadStore(buf);
    ASSERT_TRUE(loaded);
    ASSERT_EQ(loaded->size(), 2u);
    EXPECT_EQ(loaded->label(0), "legacy-a");
    EXPECT_EQ(loaded->sources(0), 3u);
    EXPECT_TRUE(loaded->fingerprint(0).bits().get(32767));
    EXPECT_EQ(loaded->label(1), "legacy-b");
    EXPECT_EQ(loaded->fingerprint(1).bits().size(), 32768u);

    EXPECT_EQ(loaded->signature(0),
              minhashSignature(makeFingerprint({1, 100, 32767}).bits(),
                               loaded->indexParams()));
}

TEST(Serialize, V1ThenV3RoundTrip)
{
    // Load v1, save (saveStore writes v3), reload: records and the
    // recomputed signatures survive unchanged across the version
    // upgrade.
    std::stringstream v1(v1Stream());
    const StoreLoadResult first = loadStore(v1);
    ASSERT_TRUE(first);

    std::stringstream v3;
    ASSERT_TRUE(saveStore(*first, v3));
    const StoreLoadResult second = loadStore(v3);
    ASSERT_TRUE(second) << second.error;
    ASSERT_EQ(second->size(), first->size());
    for (std::size_t i = 0; i < first->size(); ++i) {
        EXPECT_EQ(second->label(i), first->label(i));
        EXPECT_EQ(second->fingerprint(i).bits(),
                  first->fingerprint(i).bits());
        EXPECT_EQ(second->signature(i), first->signature(i));
    }
}

TEST(Serialize, V2ThenV3RoundTrip)
{
    // A hand-crafted v2 stream loads with its signatures adopted
    // verbatim; re-saving upgrades to v3 with identical records and
    // signatures.
    std::stringstream v2(v2Stream());
    const StoreLoadResult first = loadStore(v2);
    ASSERT_TRUE(first) << first.error;
    ASSERT_EQ(first->size(), 2u);
    EXPECT_EQ(first->label(0), "chip-alpha");
    EXPECT_EQ(first->sources(0), 3u);
    EXPECT_EQ(first->fingerprint(0).bits(),
              makeFingerprint({1, 100, 32767}).bits());
    EXPECT_EQ(first->signature(1),
              minhashSignature(makeFingerprint({5}).bits(),
                               MinHashParams{}));

    std::stringstream v3;
    ASSERT_TRUE(saveStore(*first, v3));
    const StoreLoadResult second = loadStore(v3);
    ASSERT_TRUE(second) << second.error;
    ASSERT_EQ(second->size(), first->size());
    EXPECT_EQ(second->indexParams(), first->indexParams());
    for (std::size_t i = 0; i < first->size(); ++i) {
        EXPECT_EQ(second->label(i), first->label(i));
        EXPECT_EQ(second->fingerprint(i).bits(),
                  first->fingerprint(i).bits());
        EXPECT_EQ(second->sources(i), first->sources(i));
        EXPECT_EQ(second->signature(i), first->signature(i));
    }
}

TEST(Serialize, MixedWidthStreamsAreRefused)
{
    // Every record must span one universe: a 4096-bit identify
    // against a loaded 16-bit record would abort in the distance
    // kernel. Each stream version is refused with a clean error.
    std::stringstream v1;
    putHeader(v1, 1, 2);
    putV1Record(v1, "wide", 1, 4096, {1, 2, 3});
    putV1Record(v1, "narrow", 1, 16, {1});

    std::stringstream v2;
    putHeader(v2, 2, 2);
    putV2Record(v2, "wide", 1, 4096, {1, 2, 3});
    putV2Record(v2, "narrow", 1, 16, {1});

    // v3: the record-table mutation MappedStore refuses at open —
    // record 2's universe, 4096 -> 8192 (byte 1 of its u64 field).
    FingerprintStore store;
    for (std::size_t i = 0; i < 3; ++i)
        store.add("chip", makeFingerprint({i, 100 + i}, 1, 4096));
    std::stringstream good;
    ASSERT_TRUE(saveStore(store, good));
    std::string bytes = good.str();
    bytes[pcdb::v3HeaderBytes + 2 * pcdb::v3RecordEntryBytes + 17] = 0x20;
    std::stringstream v3(bytes);

    for (std::stringstream *in : {&v1, &v2, &v3}) {
        const StoreLoadResult r = loadStore(*in);
        EXPECT_FALSE(r);
        EXPECT_NE(r.error.find("differing universe widths"),
                  std::string::npos)
            << r.error;
    }
}

TEST(Serialize, BadMagicIsRecoverable)
{
    std::stringstream buf("XXXX garbage");
    const StoreLoadResult r = loadStore(buf);
    EXPECT_FALSE(r);
    EXPECT_NE(r.error.find("not a Probable Cause database"),
              std::string::npos);
}

TEST(Serialize, TruncationIsRecoverable)
{
    const std::string bytes = v2Stream();
    // Every prefix must fail cleanly, never crash or loop.
    for (std::size_t cut : {std::size_t(2), bytes.size() / 4,
                            bytes.size() / 2, bytes.size() - 1}) {
        std::stringstream partial(bytes.substr(0, cut));
        const StoreLoadResult r = loadStore(partial);
        EXPECT_FALSE(r) << "prefix of " << cut << " bytes";
        EXPECT_FALSE(r.error.empty());
    }
}

TEST(Serialize, TruncatedSignatureTrailerIsRecoverable)
{
    // Cut a v2 stream inside the final record's signature trailer:
    // the reader must report the truncated signature, not return a
    // store with a short or garbage signature.
    const std::string bytes = v2Stream();
    const std::size_t sig_bytes =
        MinHashParams{}.numHashes * sizeof(std::uint32_t);
    ASSERT_GT(bytes.size(), sig_bytes);
    for (std::size_t keep : {std::size_t(0), sig_bytes / 2,
                             sig_bytes - 1}) {
        std::stringstream partial(
            bytes.substr(0, bytes.size() - sig_bytes + keep));
        const StoreLoadResult r = loadStore(partial);
        EXPECT_FALSE(r) << "kept " << keep << " signature bytes";
        EXPECT_NE(r.error.find("signature"), std::string::npos)
            << r.error;
    }
}

TEST(Serialize, EveryV3PrefixIsRejected)
{
    // Exhaustive prefix sweep over a small v3 file: no strict
    // prefix may load, crash, or loop — each must fail with a
    // clean error.
    FingerprintStore store;
    store.add("chip-a", makeFingerprint({1, 2, 3}, 2, 256));
    store.add("chip-b", makeFingerprint({9, 200}, 1, 256));
    std::stringstream buf;
    ASSERT_TRUE(saveStore(store, buf));
    const std::string bytes = buf.str();
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        std::stringstream partial(bytes.substr(0, cut));
        const StoreLoadResult r = loadStore(partial);
        ASSERT_FALSE(r) << "prefix of " << cut << " of "
                        << bytes.size() << " bytes loaded";
        ASSERT_FALSE(r.error.empty());
    }
    // ... and the full file loads.
    std::stringstream whole(bytes);
    const StoreLoadResult full = loadStore(whole);
    ASSERT_TRUE(full) << full.error;
    EXPECT_EQ(full->size(), 2u);
}

TEST(Serialize, RecordCountOverflowIsRecoverable)
{
    // A hostile header claiming 2^64-1 records must not blow up in
    // the pre-allocation: it fails on the first absent record.
    std::stringstream buf;
    putHeader(buf, 1, ~std::uint64_t{0}); // v1: simplest valid header
    const StoreLoadResult r = loadStore(buf);
    EXPECT_FALSE(r);
    EXPECT_NE(r.error.find("truncated"), std::string::npos)
        << r.error;
}

TEST(Serialize, ImplausibleLabelLengthIsRecoverable)
{
    // A multi-gigabyte label length must be rejected before the
    // parser tries to allocate it.
    std::stringstream buf;
    putHeader(buf, 1, 1); // one record
    put<std::uint32_t>(buf, ~std::uint32_t{0}); // label length
    const StoreLoadResult r = loadStore(buf);
    EXPECT_FALSE(r);
    EXPECT_NE(r.error.find("label"), std::string::npos) << r.error;
}

TEST(Serialize, EmptyStoreRoundTripsWithCustomParams)
{
    MinHashParams params;
    params.numHashes = 16;
    params.bands = 4;
    params.seed = 0xfeedbeef;
    const FingerprintStore store(params);
    std::stringstream buf;
    ASSERT_TRUE(saveStore(store, buf));
    const StoreLoadResult r = loadStore(buf);
    ASSERT_TRUE(r) << r.error;
    EXPECT_EQ(r->size(), 0u);
    EXPECT_TRUE(r->indexParams() == params);
}

TEST(Serialize, MissingFileIsRecoverable)
{
    const StoreLoadResult r =
        loadStore(std::string("/no/such/file.pcdb"));
    EXPECT_FALSE(r);
    EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

TEST(Serialize, UnsupportedVersionIsRecoverable)
{
    std::stringstream buf;
    buf.write("PCDB", 4);
    put<std::uint32_t>(buf, 99);
    const StoreLoadResult r = loadStore(buf);
    EXPECT_FALSE(r);
    EXPECT_NE(r.error.find("unsupported version"), std::string::npos);
}

TEST(Serialize, CorruptRecordIsRecoverable)
{
    // Position beyond the declared universe must be rejected.
    std::stringstream buf;
    putHeader(buf, 1, 1);
    putV1Record(buf, "evil", 1, 64, {100});
    const StoreLoadResult r = loadStore(buf);
    EXPECT_FALSE(r);
    EXPECT_NE(r.error.find("position beyond universe"),
              std::string::npos);
}

TEST(Serialize, ZeroSourceRecordIsRecoverable)
{
    // sources == 0 would trip Fingerprint's invariant; the parser
    // must catch it before construction.
    std::stringstream buf;
    putHeader(buf, 1, 1);
    putV1Record(buf, "hollow", 0, 64, {1});
    const StoreLoadResult r = loadStore(buf);
    EXPECT_FALSE(r);
    EXPECT_NE(r.error.find("zero sources"), std::string::npos);
}

TEST(Serialize, BadMinHashHeaderIsRecoverable)
{
    // v2 header where bands does not divide numHashes.
    std::stringstream buf;
    buf.write("PCDB", 4);
    put<std::uint32_t>(buf, 2);
    put<std::uint32_t>(buf, 64); // numHashes
    put<std::uint32_t>(buf, 7);  // bands: 64 % 7 != 0
    put<std::uint64_t>(buf, 1);  // seed
    put<std::uint64_t>(buf, 0);  // count
    const StoreLoadResult r = loadStore(buf);
    EXPECT_FALSE(r);
    EXPECT_NE(r.error.find("invalid minhash parameters"),
              std::string::npos);
}

TEST(Serialize, BitVecRoundTrips)
{
    const std::string path =
        ::testing::TempDir() + "pcause_bv_test.pcbv";
    BitVec bits(1000);
    bits.set(0);
    bits.set(7);
    bits.set(8);
    bits.set(999);
    ASSERT_TRUE(saveBitVec(bits, path));
    EXPECT_EQ(loadBitVec(path), bits);
    std::remove(path.c_str());
}

TEST(Serialize, EmptyBitVecRoundTrips)
{
    const std::string path =
        ::testing::TempDir() + "pcause_bv_empty.pcbv";
    ASSERT_TRUE(saveBitVec(BitVec(0), path));
    EXPECT_EQ(loadBitVec(path).size(), 0u);
    std::remove(path.c_str());
}

TEST(Serialize, BitVecBadMagicIsFatal)
{
    const std::string path =
        ::testing::TempDir() + "pcause_bv_bad.pcbv";
    {
        std::ofstream out(path, std::ios::binary);
        out << "NOPE data";
    }
    EXPECT_EXIT(loadBitVec(path), ::testing::ExitedWithCode(1), "");
    std::remove(path.c_str());
}

TEST(Serialize, BitVecTruncationIsFatal)
{
    const std::string path =
        ::testing::TempDir() + "pcause_bv_cut.pcbv";
    BitVec bits(64, true);
    ASSERT_TRUE(saveBitVec(bits, path));
    // Chop the payload in half.
    std::ifstream in(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(),
              static_cast<std::streamsize>(data.size() - 4));
    out.close();
    EXPECT_EXIT(loadBitVec(path), ::testing::ExitedWithCode(1), "");
    std::remove(path.c_str());
}

TEST(Serialize, DurableSaveRoundTrips)
{
    const std::string path = "serialize_durable_test.pcdb";
    std::remove(path.c_str());
    FingerprintStore store;
    store.add("only", makeFingerprint({1, 5, 9}, 2));
    std::string err;
    ASSERT_TRUE(saveStoreDurable(store, path, &err)) << err;
    StoreLoadResult back = loadStore(path);
    ASSERT_TRUE(back) << back.error;
    EXPECT_EQ(back->size(), 1u);
    EXPECT_EQ(back->label(0), "only");
    std::remove(path.c_str());
}

TEST(Serialize, FailedDurableSaveLeavesTheOldSnapshotIntact)
{
    // The crash-safety contract of temp + rename: a save that dies
    // before the rename never damages the file being replaced.
    const std::string path = "serialize_durable_keep_test.pcdb";
    std::remove(path.c_str());
    FingerprintStore v1;
    v1.add("original", makeFingerprint({2, 4}, 1));
    ASSERT_TRUE(saveStoreDurable(v1, path));

    FingerprintStore v2;
    v2.add("replacement", makeFingerprint({8, 16}, 1));
    for (const char *point :
         {"store.save.write", "store.save.fsync",
          "store.save.rename"}) {
        pcause::failpoint::arm(point,
                               pcause::failpoint::Action::Oneshot);
        std::string err;
        EXPECT_FALSE(saveStoreDurable(v2, path, &err)) << point;
        EXPECT_FALSE(err.empty()) << point;
        pcause::failpoint::disarmAll();

        StoreLoadResult kept = loadStore(path);
        ASSERT_TRUE(kept) << point << ": " << kept.error;
        EXPECT_EQ(kept->label(0), "original") << point;
    }
    std::remove(path.c_str());
}

TEST(Serialize, InjectedLoadFailureIsACleanError)
{
    const std::string path = "serialize_loadfp_test.pcdb";
    FingerprintStore store;
    store.add("x", makeFingerprint({3}, 1));
    ASSERT_TRUE(saveStore(store, path));
    pcause::failpoint::arm("store.load",
                           pcause::failpoint::Action::Oneshot);
    StoreLoadResult r = loadStore(path);
    pcause::failpoint::disarmAll();
    EXPECT_FALSE(static_cast<bool>(r));
    EXPECT_NE(r.error.find("injected"), std::string::npos);
    // Next load (failpoint spent) succeeds.
    StoreLoadResult ok = loadStore(path);
    EXPECT_TRUE(static_cast<bool>(ok)) << ok.error;
    std::remove(path.c_str());
}

TEST(Serialize, SparseFormatBeatsRawDump)
{
    // The paper's storage claim: tracking only the ~1% volatile
    // bits. A 32 KB chip's record must be far below the 32 KB a raw
    // bitmap would cost, even with the signature trailer.
    const std::size_t weight = 2621; // 1% of 262144
    const std::size_t disk = recordDiskSize(weight, 16);
    EXPECT_LT(disk, 262144 / 8 / 2);
    EXPECT_GT(disk, weight * sizeof(std::uint32_t));

    // The trailer itself is the signature, a fixed k words.
    EXPECT_EQ(recordDiskSize(weight, 16) - recordDiskSize(weight, 16, 0),
              MinHashParams{}.numHashes * sizeof(std::uint32_t));
}

} // anonymous namespace
} // namespace pcause
