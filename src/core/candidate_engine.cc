#include "core/candidate_engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>

#include "util/logging.hh"
#include "util/simd.hh"
#include "util/thread_pool.hh"

namespace pcause
{

namespace
{

/** Seconds elapsed since @p start. */
double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
}

/** What one scan over a run of records learned. */
struct ScanOutcome
{
    /** First record under threshold, with its distance. */
    std::optional<std::size_t> match;
    double matchDist = 1.0;

    /** First record achieving the scan's minimum distance. */
    std::optional<std::size_t> nearest;
    double nearestDist = 1.0;

    /** Whether any distance fell under the threshold. */
    bool anyUnderThreshold = false;

    std::uint64_t computed = 0;
    std::uint64_t pruned = 0;
};

/** Record ids [begin, begin + n), indexable like a shortlist. */
struct IdRange
{
    std::size_t begin;
    std::size_t operator[](std::size_t k) const { return begin + k; }
};

/**
 * Visit records ids[0..n) in order exactly as serial identify()
 * would, through a bounded kernel @p distAt(i, bound, &pruned). The
 * bound is max(threshold, running best distance): any distance the
 * serial code would compare against the threshold or use to update
 * the running minimum is therefore computed exactly, and a pruned
 * evaluation returns a lower bound already above both, so verdicts
 * and reported distances match the unbounded scan bit for bit.
 *
 * @p earliest_match, when non-null (first-match mode, sharded full
 * scan), carries the lowest match index found by any shard; a shard
 * whose remaining records all sit above it stops, and a shard
 * finding a match publishes it.
 */
template <typename Ids, typename DistAt>
ScanOutcome
scan(const Ids &ids, std::size_t n, const IdentifyParams &params,
     std::atomic<std::size_t> *earliest_match, const DistAt &distAt)
{
    ScanOutcome out;
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = ids[k];
        if (earliest_match &&
            earliest_match->load(std::memory_order_relaxed) < i)
            break;
        const double bound =
            std::max(params.threshold,
                     out.nearest ? out.nearestDist : 1.0);
        bool pruned = false;
        const double d = distAt(i, bound, &pruned);
        ++(pruned ? out.pruned : out.computed);
        if (!out.nearest || d < out.nearestDist) {
            out.nearest = i;
            out.nearestDist = d;
        }
        if (d < params.threshold) {
            out.anyUnderThreshold = true;
            if (!out.match) {
                out.match = i;
                out.matchDist = d;
            }
            if (params.firstMatch) {
                if (earliest_match) {
                    std::size_t cur = earliest_match->load(
                        std::memory_order_relaxed);
                    while (i < cur &&
                           !earliest_match->compare_exchange_weak(
                               cur, i, std::memory_order_relaxed)) {
                    }
                }
                break;
            }
        }
    }
    return out;
}

/** Algorithm 3: the bounded sparse kernel. */
struct ModifiedJaccardAt
{
    const BitVec &es;
    std::size_t esWeight;
    const SparseFingerprintSource &fps;

    double operator()(std::size_t i, double bound, bool *pruned) const
    {
        return modifiedJaccardSparseBounded(es, esWeight, fps.view(i),
                                            bound, pruned);
    }
};

/** |es ∩ v|: the sparse miss kernel run to completion. */
std::size_t
overlap(const BitVec &es, const SparseView &v)
{
    PC_ASSERT(es.size() == v.universe, "distance: size mismatch");
    return v.count - simd::sparseMissCountBounded(
                         es.words().data(), v.positions, v.count,
                         v.count);
}

/** Classic Jaccard from the integers jaccardDistance() divides. */
struct JaccardAt
{
    const BitVec &es;
    std::size_t esWeight;
    const SparseFingerprintSource &fps;

    double operator()(std::size_t i, double, bool *) const
    {
        const SparseView v = fps.view(i);
        const std::size_t inter = overlap(es, v);
        const std::size_t uni = esWeight + v.count - inter;
        if (uni == 0)
            return 0.0;
        return 1.0 - static_cast<double>(inter) / uni;
    }
};

/** Normalized Hamming from the integers normalizedHamming()
 *  divides. */
struct HammingAt
{
    const BitVec &es;
    std::size_t esWeight;
    const SparseFingerprintSource &fps;

    double operator()(std::size_t i, double, bool *) const
    {
        const SparseView v = fps.view(i);
        const std::size_t inter = overlap(es, v);
        return static_cast<double>(esWeight + v.count - 2 * inter) /
               es.size();
    }
};

/**
 * Run @p body with @p metric's kernel bound to the query: the
 * metric is picked here, once per query, never per record.
 */
template <typename Body>
IdentifyResult
withKernel(DistanceMetric metric, const BitVec &es,
           const SparseFingerprintSource &fps, const Body &body)
{
    const std::size_t we = es.popcount();
    switch (metric) {
      case DistanceMetric::ModifiedJaccard:
        return body(ModifiedJaccardAt{es, we, fps});
      case DistanceMetric::Jaccard:
        return body(JaccardAt{es, we, fps});
      case DistanceMetric::Hamming:
        return body(HammingAt{es, we, fps});
    }
    panic("unhandled distance metric");
}

/** Convert a whole-range ScanOutcome to the Algorithm 2 result. */
IdentifyResult
outcomeToResult(const ScanOutcome &out, const IdentifyParams &params)
{
    IdentifyResult res;
    if (params.firstMatch && out.match) {
        // Algorithm 2 line 4: the first hit is the verdict.
        res.match = out.match;
        res.nearest = out.match;
        res.bestDistance = out.matchDist;
        return res;
    }
    res.nearest = out.nearest;
    if (out.nearest)
        res.bestDistance = out.nearestDist;
    if (out.anyUnderThreshold)
        res.match = res.nearest;
    return res;
}

void
addCounters(AttackStats &stats, const ScanOutcome &out)
{
    stats.distancesComputed += out.computed;
    stats.distancesPruned += out.pruned;
}

/**
 * Exact full scan over records [0, n): serial without a pool (or on
 * a one-lane pool or a tiny database), otherwise sharded into
 * contiguous ranges whose outcomes merge to the serial result.
 */
template <typename DistAt>
IdentifyResult
fullScan(std::size_t n, const IdentifyParams &params, ThreadPool *pool,
         AttackStats &stats, const DistAt &distAt)
{
    // Sharding overhead beats the scan itself on tiny databases.
    if (!pool || pool->size() == 1 || n < 2 * pool->size()) {
        const ScanOutcome out =
            scan(IdRange{0}, n, params, nullptr, distAt);
        addCounters(stats, out);
        return outcomeToResult(out, params);
    }

    std::vector<ScanOutcome> shards(pool->size());
    std::atomic<std::size_t> earliest(
        std::numeric_limits<std::size_t>::max());
    pool->parallelChunks(
        0, n, [&](std::size_t b, std::size_t e, std::size_t c) {
            shards[c] = scan(IdRange{b}, e - b, params,
                             params.firstMatch ? &earliest : nullptr,
                             distAt);
        });
    for (const ScanOutcome &s : shards)
        addCounters(stats, s);

    if (params.firstMatch) {
        // Shards cover ascending index ranges; records below the
        // first shard-local match were all scanned and missed, so
        // the lowest shard's match is exactly serial line 4's hit.
        for (const ScanOutcome &s : shards) {
            if (s.match)
                return outcomeToResult(s, params);
        }
    }

    // Merge shard minima in ascending order with a strict compare,
    // reproducing the serial "first record achieving the minimum".
    ScanOutcome merged;
    for (const ScanOutcome &s : shards) {
        if (s.nearest &&
            (!merged.nearest || s.nearestDist < merged.nearestDist)) {
            merged.nearest = s.nearest;
            merged.nearestDist = s.nearestDist;
        }
        merged.anyUnderThreshold |= s.anyUnderThreshold;
    }
    return outcomeToResult(merged, params);
}

} // anonymous namespace

IdentifyResult
CandidateEngine::search(const BitVec &error_string,
                        const IdentifyParams &params, bool indexed,
                        ThreadPool *pool, AttackStats &delta) const
{
    const auto start = std::chrono::steady_clock::now();
    const SparseFingerprintSource &fps = sparseFingerprints();
    delta.recordsAvailable += fps.count();
    const IdentifyResult res = withKernel(
        params.metric, error_string, fps, [&](const auto &distAt) {
            if (indexed) {
                ++delta.indexQueries;
                if (params.firstMatch) {
                    const std::vector<std::size_t> cand = candidates(
                        minhashSketch(error_string, indexParams()));
                    delta.candidatesScanned += cand.size();
                    const ScanOutcome out =
                        scan(cand, cand.size(), params, nullptr, distAt);
                    addCounters(delta, out);
                    if (out.match)
                        return outcomeToResult(out, params);
                }
                // No shortlist accept: the full scan's verdict is
                // returned verbatim, which is what pins accept/reject
                // to the linear Algorithm 2.
                ++delta.indexFallbacks;
            }
            return fullScan(fps.count(), params, pool, delta, distAt);
        });
    delta.identifySeconds += secondsSince(start);
    return res;
}

IdentifyResult
CandidateEngine::query(const BitVec &error_string,
                       const IdentifyParams &params,
                       AttackStats *stats) const
{
    AttackStats delta;
    const IdentifyResult res =
        search(error_string, params, true, workers, delta);
    if (stats)
        *stats += delta;
    return res;
}

std::vector<IdentifyResult>
CandidateEngine::queryBatch(const std::vector<BitVec> &error_strings,
                            const IdentifyParams &params,
                            AttackStats *stats,
                            std::vector<AttackStats> *each) const
{
    const auto start = std::chrono::steady_clock::now();
    const std::size_t n = error_strings.size();
    std::vector<IdentifyResult> results(n);
    std::vector<AttackStats> deltas(n);
    ThreadPool &pool = workers ? *workers : ThreadPool::global();
    if (n < pool.size()) {
        // Few queries: let each query's fallback shard the database
        // scan across the pool instead.
        for (std::size_t q = 0; q < n; ++q)
            results[q] = search(error_strings[q], params, true,
                                workers, deltas[q]);
    } else {
        // Queries already occupy the pool: scans stay serial.
        pool.parallelFor(0, n, [&](std::size_t q) {
            results[q] = search(error_strings[q], params, true,
                                nullptr, deltas[q]);
        });
    }
    if (stats) {
        AttackStats total;
        for (const AttackStats &d : deltas)
            total += d;
        // The batch's queries overlap in time: one wall-time stamp
        // for the whole batch, not the sum of theirs.
        total.identifySeconds = secondsSince(start);
        *stats += total;
    }
    if (each)
        *each = std::move(deltas);
    return results;
}

IdentifyResult
CandidateEngine::queryLinear(const BitVec &error_string,
                             const IdentifyParams &params,
                             AttackStats *stats) const
{
    AttackStats delta;
    const IdentifyResult res =
        search(error_string, params, false, nullptr, delta);
    if (stats)
        *stats += delta;
    return res;
}

} // namespace pcause
