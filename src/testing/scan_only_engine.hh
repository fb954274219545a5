/**
 * @file
 * ScanOnlyEngine: the candidate engine with an always-empty
 * shortlist, for differential tests of the full-scan fallback.
 *
 * Every indexed query on it is decided by the exact full scan —
 * sharded across the pool when one is set — so its verdicts, match
 * index included, must equal the dense identifyErrorString() oracle
 * bit for bit in both firstMatch modes. A real store may legally
 * report a different first-match record when several sit under the
 * threshold; this engine may not.
 */

#ifndef PCAUSE_TESTING_SCAN_ONLY_ENGINE_HH
#define PCAUSE_TESTING_SCAN_ONLY_ENGINE_HH

#include "core/candidate_engine.hh"

namespace pcause
{

/** The records of a FingerprintDb behind an empty shortlist. */
class ScanOnlyEngine : public CandidateEngine
{
  public:
    explicit ScanOnlyEngine(const FingerprintDb &db)
    {
        for (std::size_t i = 0; i < db.size(); ++i)
            fps.add(db.record(i).fingerprint.bits());
    }

    const SparseFingerprintSource &sparseFingerprints() const override
    {
        return fps;
    }

    const MinHashParams &indexParams() const override { return prm; }

    std::vector<std::size_t>
    candidates(const MinHashSketch &) const override
    {
        return {};
    }

  private:
    SparseFingerprintArena fps;
    MinHashParams prm;
};

} // namespace pcause

#endif // PCAUSE_TESTING_SCAN_ONLY_ENGINE_HH
