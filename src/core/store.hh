/**
 * @file
 * FingerprintStore: the attacker database behind one API.
 *
 * Keeps the records (labels, the dense FingerprintDb mirror, the
 * sparse position arena and MinHash signatures) and an in-memory
 * MinHash/LSH bucket index (core/minhash). Queries run on the
 * shared CandidateEngine (core/candidate_engine.hh): the LSH index
 * supplies the shortlist, the engine confirms it with the exact
 * kernel and falls back to the full scan, so accept/reject always
 * equals the paper's linear Algorithm 2 (see docs/ALGORITHMS.md
 * "Fingerprint index").
 */

#ifndef PCAUSE_CORE_STORE_HH
#define PCAUSE_CORE_STORE_HH

#include <cstdint>
#include <vector>

#include "core/candidate_engine.hh"
#include "core/identify.hh"
#include "core/minhash.hh"

namespace pcause
{

class ThreadPool;

/** Indexed attacker database: FingerprintDb + LSH candidate index. */
class FingerprintStore : public CandidateEngine
{
  public:
    explicit FingerprintStore(const MinHashParams &index_params = {});

    /** Build a store over an existing database (index computed). */
    static FingerprintStore fromDb(FingerprintDb db,
                                   const MinHashParams &index_params = {});

    /**
     * Add a record: the signature is computed and indexed
     * incrementally, no rebuild. Returns the record index.
     */
    std::size_t add(ChipLabel label, Fingerprint fp);

    /**
     * Add a record whose signature is already known (the on-disk
     * formats carry signatures). @p sig_params must state the
     * parameters the signature was computed under: when its
     * signature space matches this store's (same hash count and
     * seed — banding does not affect signature content), the
     * signature is adopted verbatim; otherwise it is recomputed
     * under the store's parameters, so a caller can never silently
     * mix signature spaces (e.g. by adding a default-params
     * signature to a store loaded from a custom-params file).
     */
    std::size_t addWithSignature(ChipLabel label, Fingerprint fp,
                                 MinHashSignature sig,
                                 const MinHashParams &sig_params);

    /**
     * Bulk add with a parallel index build: signatures are computed
     * across the thread pool (setThreadPool(), else the process
     * global) and the LSH bucket maps are filled band-sharded. The
     * resulting store is bit-identical to serial add() calls in
     * order — signatures are order-independent and each band's
     * buckets see records in ascending id order either way.
     * @p labels and @p fps pair up elementwise and are consumed.
     */
    void addBatch(std::vector<ChipLabel> labels,
                  std::vector<Fingerprint> fps);

    /** Number of records. */
    std::size_t size() const { return records.size(); }

    /** True when no record has been added. */
    bool empty() const { return records.size() == 0; }

    /** Record @p i. */
    const FingerprintRecord &record(std::size_t i) const
    {
        return records.record(i);
    }

    /** The wrapped database (for the unindexed legacy APIs). */
    const FingerprintDb &db() const { return records; }

    /** MinHash signature of record @p i. */
    const MinHashSignature &signature(std::size_t i) const;

    /** Signature/banding parameters of the current index. */
    const MinHashParams &indexParams() const override
    {
        return lsh.params();
    }

    /** The candidate index (diagnostics: occupancy, size). */
    const LshIndex &index() const { return lsh; }

    /**
     * Sparse position-arena mirror of the fingerprints, maintained
     * alongside the dense records: the representation every query
     * scans and the v3 writer persists.
     */
    const SparseFingerprintArena &sparseFingerprints() const override
    {
        return sparse;
    }

    /** Multi-probe shortlist from the in-memory LSH index. */
    std::vector<std::size_t>
    candidates(const MinHashSketch &sketch) const override
    {
        return lsh.candidates(sketch);
    }

    using CandidateEngine::query;

    /** Indexed Algorithm 2 from an output and its exact value. */
    IdentifyResult query(const BitVec &approx, const BitVec &exact,
                         const IdentifyParams &params = {},
                         AttackStats *stats = nullptr) const;

    /**
     * Rebuild the index under new signature/banding parameters;
     * signatures are recomputed (across the pool when one is set).
     */
    void reindex(const MinHashParams &new_params);

  private:
    FingerprintDb records;
    std::vector<MinHashSignature> signatures;
    SparseFingerprintArena sparse;
    LshIndex lsh;
};

} // namespace pcause

#endif // PCAUSE_CORE_STORE_HH
