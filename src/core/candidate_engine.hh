/**
 * @file
 * CandidateEngine: the one Algorithm 2 query engine behind both
 * attacker stores.
 *
 * A backend contributes only what really differs between stores:
 * where the sparse fingerprints live and how a query's MinHash
 * sketch turns into a shortlist of record ids — the in-memory
 * LshIndex (FingerprintStore) or the on-disk sorted band keys
 * (MappedStore). The engine owns everything else: shortlist scan →
 * exact bounded confirm → exact full-scan fallback (serial, or
 * sharded across a thread pool), for every DistanceMetric, with the
 * AttackStats accounting.
 *
 * Every metric is served from the sparse positions. Algorithm 3
 * runs the bounded sparse kernel (modifiedJaccardSparseBounded);
 * Jaccard and Hamming are functions of |A|, |B|, |A∩B| and the
 * universe, and take |A∩B| from the same sparse miss kernel run to
 * completion — the integers jaccardDistance()/normalizedHamming()
 * divide, so distances are bit-identical to the dense metrics. The
 * metric is picked once per query, outside the per-record loop.
 *
 * Verdict contract (docs/ALGORITHMS.md "Fingerprint index"):
 * accept/reject always equals the linear Algorithm 2. A shortlist
 * accept is a record the exact kernel verified under threshold; a
 * shortlist miss falls through to the full scan, whose verdict is
 * returned verbatim. Best-match mode asks for the global minimum,
 * which no shortlist can certify, so it is always answered by the
 * full scan. The only permitted divergence is *which* record a
 * first-match query reports when several sit under the threshold.
 */

#ifndef PCAUSE_CORE_CANDIDATE_ENGINE_HH
#define PCAUSE_CORE_CANDIDATE_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/attack_stats.hh"
#include "core/identify.hh"
#include "core/minhash.hh"

namespace pcause
{

class ThreadPool;

/** Indexed sparse fingerprints and the one query engine over them. */
class CandidateEngine
{
  public:
    virtual ~CandidateEngine() = default;

    /** The records' sparse position lists. */
    virtual const SparseFingerprintSource &sparseFingerprints() const = 0;

    /** Signature/banding parameters the bucket lookup uses. */
    virtual const MinHashParams &indexParams() const = 0;

    /**
     * Record ids sharing any probe bucket with @p sketch in any
     * band, ascending and deduplicated.
     */
    virtual std::vector<std::size_t>
    candidates(const MinHashSketch &sketch) const = 0;

    /**
     * The one universe width every record shares (both stores refuse
     * records of another width); 0 while there are no records.
     */
    std::uint64_t universeBits() const;

    /**
     * Use @p pool (not owned) for single-query fallback scans and
     * batch queries; null reverts to serial fallbacks and the
     * process-global pool for batches.
     */
    void setThreadPool(ThreadPool *pool) { workers = pool; }

    /**
     * Indexed Algorithm 2 from a precomputed error string: exact
     * bounded scan of the shortlist, full fallback scan (sharded
     * across the pool when one is set) when the shortlist yields no
     * accept; best-match queries take the full scan alone. @p stats,
     * when non-null, accumulates the index and kernel counters and
     * the query's wall time.
     */
    IdentifyResult query(const BitVec &error_string,
                         const IdentifyParams &params = {},
                         AttackStats *stats = nullptr) const;

    /**
     * Batch query: elementwise equal to query(), spread across the
     * thread pool (the process-global pool when none is set).
     * @p stats accumulates the batch total with one wall-time stamp
     * for the whole batch; @p each, when non-null, receives every
     * query's own delta (counters and wall time).
     */
    std::vector<IdentifyResult>
    queryBatch(const std::vector<BitVec> &error_strings,
               const IdentifyParams &params = {},
               AttackStats *stats = nullptr,
               std::vector<AttackStats> *each = nullptr) const;

    /**
     * Reference linear Algorithm 2: serial bounded full scan,
     * bit-identical verdicts to identifyErrorString() — the
     * baseline the index is measured against.
     */
    IdentifyResult queryLinear(const BitVec &error_string,
                               const IdentifyParams &params = {},
                               AttackStats *stats = nullptr) const;

  protected:
    CandidateEngine() = default;
    CandidateEngine(const CandidateEngine &) = default;
    CandidateEngine(CandidateEngine &&) = default;
    CandidateEngine &operator=(const CandidateEngine &) = default;
    CandidateEngine &operator=(CandidateEngine &&) = default;

    /** The pool set by setThreadPool() (may be null). */
    ThreadPool *threadPool() const { return workers; }

  private:
    /**
     * The engine: shortlist → confirm → fallback when @p indexed,
     * else the full scan alone; the full scan is sharded across
     * @p pool when non-null. Adds the counters and its own wall
     * time to @p delta.
     */
    IdentifyResult search(const BitVec &error_string,
                          const IdentifyParams &params, bool indexed,
                          ThreadPool *pool, AttackStats &delta) const;

    ThreadPool *workers = nullptr;
};

} // namespace pcause

#endif // PCAUSE_CORE_CANDIDATE_ENGINE_HH
