/**
 * @file
 * Algorithm 2 (IDENTIFY) invariances. The attack's verdict must be
 * a function of the *sets* involved, not of incidental ordering:
 * permuting the database cannot change accept/reject or the best
 * distance (best-match mode), and every path of the candidate
 * engine — the serial linear scan, the pool-sharded full scan, the
 * batch — must be bit-identical to the dense serial reference
 * identifyErrorString().
 */

#include "prop_common.hh"

#include <algorithm>
#include <numeric>

#include "core/distance.hh"
#include "core/identify.hh"
#include "core/store.hh"
#include "testing/scan_only_engine.hh"
#include "util/thread_pool.hh"

using namespace pcause;
using pcheck::Ctx;

namespace
{

/** Database + an error string aimed at one of its records. */
struct Scenario
{
    FingerprintDb db;
    BitVec probe;
    std::size_t target = 0;
};

/** @p max_records above 2 × the pool's lanes lets the full scan
 *  shard. */
Scenario
genScenario(Ctx &ctx, std::size_t max_records = 6)
{
    Scenario s;
    const std::size_t records =
        ctx.sizeRange(1, max_records, "records");
    s.db = pcheck::genDb(ctx, 64 * records, records);
    s.target = ctx.sizeRange(0, records - 1, "target");
    // Half the trials probe with a matching observation, half with
    // an arbitrary pattern that usually matches nothing.
    if (ctx.boolean(0.5, "matching_probe"))
        s.probe = pcheck::genMatchingErrorString(ctx, s.db, s.target);
    else
        s.probe = pcheck::genBitVec(ctx, 64 * records, 2);
    return s;
}

/** A random permutation of [0, n) driven by the tape. */
std::vector<std::size_t>
genPermutation(Ctx &ctx, std::size_t n)
{
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; --i)
        std::swap(perm[i - 1], perm[ctx.below(i)]);
    return perm;
}

} // namespace

PCHECK_PROPERTY(PropIdentify, DbAddOrderInvariant, [](Ctx &ctx) {
    const Scenario s = genScenario(ctx);
    const std::vector<std::size_t> perm =
        genPermutation(ctx, s.db.size());
    FingerprintDb shuffled;
    for (std::size_t i : perm)
        shuffled.add(s.db.record(i).label,
                     s.db.record(i).fingerprint);

    // Best-match mode: the verdict depends only on the set of
    // fingerprints, so it must survive any database ordering.
    IdentifyParams p;
    p.firstMatch = false;
    const IdentifyResult a = identifyErrorString(s.probe, s.db, p);
    const IdentifyResult b = identifyErrorString(s.probe, shuffled, p);
    PCHECK_EQ(a.match.has_value(), b.match.has_value());
    PCHECK_EQ(a.bestDistance, b.bestDistance);
    if (a.match && b.match) {
        // Ties may legitimately resolve to different records; both
        // picks must sit at exactly the reported best distance.
        PCHECK_EQ(modifiedJaccard(
                      s.probe, s.db.record(*a.match)
                                   .fingerprint.bits()),
                  a.bestDistance);
        PCHECK_EQ(modifiedJaccard(
                      s.probe, shuffled.record(*b.match)
                                   .fingerprint.bits()),
                  a.bestDistance);
    }
})

namespace
{

/** Match, nearest and distance all equal, bit for bit. */
void
checkSame(const IdentifyResult &got, const IdentifyResult &want)
{
    PCHECK_EQ(got.match.has_value(), want.match.has_value());
    if (want.match)
        PCHECK_EQ(*got.match, *want.match);
    PCHECK_EQ(got.nearest.has_value(), want.nearest.has_value());
    if (want.nearest)
        PCHECK_EQ(*got.nearest, *want.nearest);
    PCHECK_EQ(got.bestDistance, want.bestDistance);
}

} // namespace

PCHECK_PROPERTY(PropIdentify, BoundedEqualsSerial, [](Ctx &ctx) {
    // The engine's reference linear scan: serial, bounded, sparse.
    const Scenario s = genScenario(ctx);
    IdentifyParams p;
    p.firstMatch = ctx.boolean(0.5, "first_match");
    checkSame(FingerprintStore::fromDb(s.db).queryLinear(s.probe, p),
              identifyErrorString(s.probe, s.db, p));
})

PCHECK_PROPERTY(PropIdentify, ParallelEqualsSerial, [](Ctx &ctx) {
    // The fallback full scan sharded across a pool, including the
    // first-match earliest-shard protocol.
    static ThreadPool pool(4);
    Scenario s = genScenario(ctx, 24);
    if (ctx.boolean(0.5, "second_target")) {
        // Several records under threshold, likely in different
        // shards: first-match must still report the lowest one.
        const std::size_t other = ctx.below(s.db.size(), "other");
        s.probe |= pcheck::genMatchingErrorString(ctx, s.db, other);
    }
    IdentifyParams p;
    p.firstMatch = ctx.boolean(0.5, "first_match");
    ScanOnlyEngine engine(s.db);
    engine.setThreadPool(&pool);
    checkSame(engine.query(s.probe, p),
              identifyErrorString(s.probe, s.db, p));
})

PCHECK_PROPERTY(PropIdentify, BatchEqualsSerialEverywhere,
                [](Ctx &ctx) {
    static ThreadPool pool(4);
    const std::size_t records = ctx.sizeRange(1, 20, "records");
    const FingerprintDb db =
        pcheck::genDb(ctx, 64 * records, records);
    const std::size_t queries = ctx.sizeRange(1, 8, "queries");
    std::vector<BitVec> probes;
    for (std::size_t q = 0; q < queries; ++q) {
        if (ctx.boolean(0.6, "matching_probe")) {
            // Sequence the draws: argument evaluation order is
            // unspecified and the tape must be stable.
            const std::size_t target = ctx.below(records, "target");
            probes.push_back(
                pcheck::genMatchingErrorString(ctx, db, target));
        } else
            probes.push_back(
                pcheck::genBitVec(ctx, 64 * records, 2));
    }
    IdentifyParams p;
    p.firstMatch = ctx.boolean(0.5, "first_match");

    // Fewer queries than lanes shard each scan; more spread the
    // queries across the pool.
    ScanOnlyEngine engine(db);
    engine.setThreadPool(&pool);
    const std::vector<IdentifyResult> batch =
        engine.queryBatch(probes, p);
    PCHECK_EQ(batch.size(), probes.size());
    for (std::size_t q = 0; q < queries; ++q)
        checkSame(batch[q], identifyErrorString(probes[q], db, p));
})

PCHECK_PROPERTY(PropIdentify, QueryPermutationInvariant,
                [](Ctx &ctx) {
    // Permuting a batch permutes its results and nothing else:
    // queries are independent.
    static ThreadPool pool(4);
    const std::size_t records = ctx.sizeRange(1, 4, "records");
    const FingerprintDb db =
        pcheck::genDb(ctx, 64 * records, records);
    const std::size_t queries = ctx.sizeRange(2, 6, "queries");
    std::vector<BitVec> probes;
    for (std::size_t q = 0; q < queries; ++q)
        probes.push_back(pcheck::genBitVec(ctx, 64 * records, 2));
    const std::vector<std::size_t> perm = genPermutation(ctx, queries);
    std::vector<BitVec> shuffled;
    for (std::size_t i : perm)
        shuffled.push_back(probes[i]);

    FingerprintStore store = FingerprintStore::fromDb(db);
    store.setThreadPool(&pool);
    const std::vector<IdentifyResult> base = store.queryBatch(probes);
    const std::vector<IdentifyResult> moved =
        store.queryBatch(shuffled);
    for (std::size_t q = 0; q < queries; ++q) {
        checkSame(moved[q], base[perm[q]]);
        PCHECK_EQ(moved[q].match.has_value(),
                  identifyErrorString(shuffled[q], db)
                      .match.has_value());
    }
})
