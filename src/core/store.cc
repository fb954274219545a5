#include "core/store.hh"

#include "core/error_string.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace pcause
{

namespace
{

/**
 * Whether a signature computed under @p a is valid content under
 * @p b: signature values depend on the hash count and seed only
 * (banding and probing are how signatures are *used*, not what they
 * contain).
 */
bool
sameSignatureSpace(const MinHashParams &a, const MinHashParams &b)
{
    return a.numHashes == b.numHashes && a.seed == b.seed;
}

} // anonymous namespace

FingerprintStore::FingerprintStore(const MinHashParams &index_params)
    : lsh(index_params)
{
}

FingerprintStore
FingerprintStore::fromDb(FingerprintDb db, const MinHashParams &index_params)
{
    FingerprintStore store(index_params);
    for (std::size_t i = 0; i < db.size(); ++i) {
        FingerprintRecord &rec = db.record(i);
        store.add(std::move(rec.label), std::move(rec.fingerprint));
    }
    return store;
}

std::size_t
FingerprintStore::add(ChipLabel label, Fingerprint fp)
{
    MinHashSignature sig =
        minhashSignature(fp.bits(), lsh.params());
    return addWithSignature(std::move(label), std::move(fp),
                            std::move(sig), lsh.params());
}

std::size_t
FingerprintStore::addWithSignature(ChipLabel label, Fingerprint fp,
                                   MinHashSignature sig,
                                   const MinHashParams &sig_params)
{
    if (!sameSignatureSpace(sig_params, lsh.params())) {
        // A foreign-space signature indexed as-is would silently
        // miss every honest query; recompute instead of trusting.
        sig = minhashSignature(fp.bits(), lsh.params());
    }
    PC_ASSERT(sig.size() == lsh.params().numHashes,
              "FingerprintStore: signature length mismatch");
    PC_ASSERT(empty() || fp.bits().size() == universeBits(),
              "FingerprintStore: record width differs from the store's");
    const std::size_t i = size();
    sparse.add(fp.bits());
    labels.push_back(std::move(label));
    sourceCounts.push_back(fp.sources());
    lsh.add(i, sig);
    signatures.push_back(std::move(sig));
    return i;
}

void
FingerprintStore::addBatch(std::vector<ChipLabel> new_labels,
                           std::vector<Fingerprint> fps)
{
    PC_ASSERT(new_labels.size() == fps.size(),
              "addBatch: label/fingerprint count mismatch");
    if (fps.empty())
        return;
    const std::uint64_t width =
        empty() ? fps.front().bits().size() : universeBits();
    for (const Fingerprint &fp : fps)
        PC_ASSERT(fp.bits().size() == width,
                  "addBatch: record width differs from the store's");

    ThreadPool &pool = threadPool() ? *threadPool() : ThreadPool::global();
    const std::size_t first = size();
    const MinHashParams &prm = lsh.params();

    // Signatures are pure functions of (fingerprint, params):
    // hashing them across the pool cannot change their values.
    std::vector<MinHashSignature> sigs(fps.size());
    pool.parallelFor(0, fps.size(), [&](std::size_t i) {
        sigs[i] = minhashSignature(fps[i].bits(), prm);
    });

    // Band-sharded bucket fill; ids ascend within every band, the
    // same structure serial add() builds.
    lsh.addAll(first, sigs, &pool);

    for (std::size_t i = 0; i < fps.size(); ++i) {
        sparse.add(fps[i].bits());
        labels.push_back(std::move(new_labels[i]));
        sourceCounts.push_back(fps[i].sources());
        signatures.push_back(std::move(sigs[i]));
        fps[i] = Fingerprint(); // the arena now holds its only copy
    }
}

const ChipLabel &
FingerprintStore::label(std::size_t i) const
{
    PC_ASSERT(i < labels.size(), "FingerprintStore label index out of range");
    return labels[i];
}

std::uint32_t
FingerprintStore::sources(std::size_t i) const
{
    PC_ASSERT(i < sourceCounts.size(),
              "FingerprintStore sources index out of range");
    return sourceCounts[i];
}

Fingerprint
FingerprintStore::fingerprint(std::size_t i) const
{
    return Fingerprint(toBitVec(sparse.view(i)), sources(i));
}

const MinHashSignature &
FingerprintStore::signature(std::size_t i) const
{
    PC_ASSERT(i < signatures.size(),
              "FingerprintStore signature index out of range");
    return signatures[i];
}

IdentifyResult
FingerprintStore::query(const BitVec &approx, const BitVec &exact,
                        const IdentifyParams &params,
                        AttackStats *stats) const
{
    return query(errorString(approx, exact), params, stats);
}

void
FingerprintStore::reindex(const MinHashParams &new_params)
{
    LshIndex next(new_params);
    std::vector<MinHashSignature> sigs(size());

    // Each record is hashed from its own dense rebuild, so signatures
    // are exactly those add() computed from the original bits.
    ThreadPool *pool = threadPool();
    const auto hashRecord = [&](std::size_t i) {
        sigs[i] = minhashSignature(toBitVec(sparse.view(i)), new_params);
    };
    if (pool) {
        pool->parallelFor(0, size(), hashRecord);
    } else {
        for (std::size_t i = 0; i < size(); ++i)
            hashRecord(i);
    }
    next.addAll(0, sigs, pool);

    lsh = std::move(next);
    signatures = std::move(sigs);
}

} // namespace pcause
