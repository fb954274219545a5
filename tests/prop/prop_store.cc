/**
 * @file
 * FingerprintStore differential oracle: the MinHash/LSH candidate
 * index is a pure shortlist, so query() must agree with the linear
 * Algorithm 2 scan (queryLinear) on every accept/reject verdict —
 * and in best-match mode on the record and distance too. The same
 * holds for every distance metric on both backends (in-memory and
 * mmap-ed), against the dense identifyErrorString() oracle.
 * Reindexing under different banding parameters changes only
 * speed, never verdicts.
 */

#include "prop_common.hh"

#include <cstdio>

#include "core/mapped_store.hh"
#include "core/serialize.hh"
#include "core/store.hh"
#include "util/thread_pool.hh"

using namespace pcause;
using pcheck::Ctx;

namespace
{

MinHashParams
genIndexParams(Ctx &ctx)
{
    MinHashParams mh;
    mh.numHashes = static_cast<std::uint32_t>(
        8u << ctx.sizeRange(0, 2, "hashes_log8"));
    const std::uint32_t divisors[] = {1, 2, 4, 8};
    mh.bands = divisors[ctx.sizeRange(0, 3, "band_divisor")];
    mh.bands = mh.numHashes / mh.bands;
    mh.seed = ctx.bits("index_seed");
    return mh;
}

FingerprintStore
genStore(Ctx &ctx, std::size_t records, std::size_t nbits)
{
    FingerprintStore store(genIndexParams(ctx));
    const FingerprintDb db = pcheck::genDb(ctx, nbits, records);
    for (std::size_t i = 0; i < db.size(); ++i)
        store.add(db.record(i).label, db.record(i).fingerprint);
    return store;
}

BitVec
genProbe(Ctx &ctx, const FingerprintStore &store, std::size_t nbits)
{
    if (ctx.boolean(0.5, "matching_probe")) {
        const std::size_t target =
            ctx.below(store.size(), "target");
        const BitVec &fp = store.record(target).fingerprint.bits();
        return pcheck::genNoisyObservation(
            ctx, fp, 0.93,
            std::max<std::size_t>(1, fp.popcount() / 4));
    }
    return pcheck::genBitVec(ctx, nbits, 2);
}

} // namespace

PCHECK_PROPERTY(PropStore, QueryAgreesWithLinearScan, [](Ctx &ctx) {
    const std::size_t records = ctx.sizeRange(1, 6, "records");
    const std::size_t nbits = 64 * records;
    const FingerprintStore store = genStore(ctx, records, nbits);
    const BitVec probe = genProbe(ctx, store, nbits);

    IdentifyParams p;
    p.firstMatch = ctx.boolean(0.5, "first_match");
    const IdentifyResult indexed = store.query(probe, p);
    const IdentifyResult linear = store.queryLinear(probe, p);
    PCHECK_EQ(indexed.match.has_value(), linear.match.has_value());
    if (!p.firstMatch && indexed.match) {
        // Best-match mode is fully determined by the fingerprint
        // set; first-match mode may legally report a different
        // (still sub-threshold) record, so only the verdict binds.
        PCHECK_EQ(*indexed.match, *linear.match);
        PCHECK_EQ(indexed.bestDistance, linear.bestDistance);
    }
})

PCHECK_PROPERTY(PropStore, BatchAgreesWithSingleQueries,
                [](Ctx &ctx) {
    static ThreadPool pool(4);
    const std::size_t records = ctx.sizeRange(1, 5, "records");
    const std::size_t nbits = 64 * records;
    FingerprintStore store = genStore(ctx, records, nbits);
    store.setThreadPool(&pool);

    const std::size_t queries = ctx.sizeRange(1, 6, "queries");
    std::vector<BitVec> probes;
    for (std::size_t q = 0; q < queries; ++q)
        probes.push_back(genProbe(ctx, store, nbits));

    IdentifyParams p;
    p.firstMatch = ctx.boolean(0.5, "first_match");
    const std::vector<IdentifyResult> batch =
        store.queryBatch(probes, p);
    PCHECK_EQ(batch.size(), probes.size());
    for (std::size_t q = 0; q < queries; ++q) {
        const IdentifyResult one = store.query(probes[q], p);
        PCHECK_EQ(batch[q].match.has_value(), one.match.has_value());
        if (one.match)
            PCHECK_EQ(*batch[q].match, *one.match);
        PCHECK_EQ(batch[q].bestDistance, one.bestDistance);
    }
})

PCHECK_PROPERTY(PropStore, ReindexPreservesVerdicts, [](Ctx &ctx) {
    const std::size_t records = ctx.sizeRange(1, 5, "records");
    const std::size_t nbits = 64 * records;
    FingerprintStore store = genStore(ctx, records, nbits);
    const BitVec probe = genProbe(ctx, store, nbits);

    IdentifyParams p;
    p.firstMatch = false;
    const IdentifyResult before = store.query(probe, p);
    store.reindex(genIndexParams(ctx));
    const IdentifyResult after = store.query(probe, p);
    PCHECK_EQ(before.match.has_value(), after.match.has_value());
    if (before.match)
        PCHECK_EQ(*before.match, *after.match);
    PCHECK_EQ(before.bestDistance, after.bestDistance);
})

PCHECK_PROPERTY(PropStore, EveryMetricAgreesWithDenseOracle,
                [](Ctx &ctx) {
    static ThreadPool pool(4);
    const std::size_t records = ctx.sizeRange(1, 12, "records");
    const std::size_t nbits = 64 * records;
    FingerprintStore store = genStore(ctx, records, nbits);
    store.setThreadPool(&pool);
    const std::size_t queries = ctx.sizeRange(1, 6, "queries");
    std::vector<BitVec> probes;
    for (std::size_t q = 0; q < queries; ++q)
        probes.push_back(genProbe(ctx, store, nbits));

    const DistanceMetric metrics[] = {DistanceMetric::ModifiedJaccard,
                                      DistanceMetric::Jaccard,
                                      DistanceMetric::Hamming};
    const double thresholds[] = {0.1, 0.35, 0.8};
    IdentifyParams p;
    p.metric = metrics[ctx.below(3, "metric")];
    p.threshold = thresholds[ctx.below(3, "threshold")];
    p.firstMatch = ctx.boolean(0.5, "first_match");

    const std::string path =
        ::testing::TempDir() + "prop_store_every_metric.pcdb";
    PCHECK_MSG(saveStore(store, path), "save failed");
    LoadResult<MappedStore> mapped = MappedStore::open(path);
    std::remove(path.c_str()); // the mapping outlives the name
    PCHECK_MSG(static_cast<bool>(mapped), mapped.error);
    mapped->setThreadPool(&pool);

    const std::vector<IdentifyResult> batch = store.queryBatch(probes, p);
    for (std::size_t q = 0; q < queries; ++q) {
        const IdentifyResult want =
            identifyErrorString(probes[q], store.db(), p);
        for (const IdentifyResult &got :
             {store.query(probes[q], p), store.queryLinear(probes[q], p),
              batch[q], mapped->query(probes[q], p)}) {
            PCHECK_EQ(got.match.has_value(), want.match.has_value());
            if (!p.firstMatch) {
                if (want.match)
                    PCHECK_EQ(*got.match, *want.match);
                PCHECK_EQ(got.bestDistance, want.bestDistance);
            }
        }
    }
})
