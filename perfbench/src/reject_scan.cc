/**
 * @file
 * reject_scan: offline attribution against a 100k-record database,
 * in process.
 *
 * At this size a reject costs ~600x a known identify (~28 ms
 * against ~48 µs single-threaded): the shortlist finds nothing and
 * the full-scan fallback decides. Both copies of the query
 * algorithm run:
 *   - the in-memory FingerprintStore, through
 *     AttackService::identifyBatch in fixed-size batches on the
 *     benchmark's fixed pool (known_qps, unknown_qps; known_qps
 *     bypasses the fallback and is the control);
 *   - the same records saved as v3 and opened with mmap, one
 *     AttackService::identify at a time with no pool (the latency
 *     metrics).
 * Adds characterize fresh chips into the in-memory store. All phases
 * are interleaved in slices over the whole run.
 */

#include <optional>

#include "bench.hh"
#include "core/mapped_store.hh"
#include "core/serialize.hh"
#include "core/service.hh"
#include "core/store.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

namespace
{

using namespace pcause;

constexpr std::size_t records = 100000;
constexpr std::size_t knownQueries = 4096;
constexpr std::size_t unknownQueries = 256;
constexpr std::size_t knownBatch = 64;
constexpr std::size_t unknownBatch = 4;
constexpr std::size_t setupRepeats = 3;
constexpr std::size_t addStrings = 3;
constexpr std::size_t cycles = 10;

/** Per-phase share of the run (sums to 1; adds run a fixed count). */
constexpr double knownSingleShare = 0.15;
constexpr double unknownSingleShare = 0.3;
constexpr double knownBatchShare = 0.2;
constexpr double unknownBatchShare = 0.35;
/** Adds per slice: a fixed count (~0.1 s), so the store grows by the
 *  same 2.5% in every run whatever its length. */
constexpr std::size_t addsPerSlice = 256;

/** Verdict summary kept for the cross-checks. */
struct Seen
{
    bool matched = false;
    double distance = 0;
    std::string label;
};

Seen
seen(const IdentifyVerdict &v)
{
    return {v.matched, v.distance, v.label};
}

bool
operator==(const Seen &a, const Seen &b)
{
    return a.matched == b.matched && a.distance == b.distance &&
           a.label == b.label;
}

/** Verdicts of one query class, with the query each answered. */
struct Answers
{
    std::vector<Seen> verdicts;
    std::vector<std::size_t> query;
    std::size_t cursor = 0; //!< next query of the class
    std::vector<double> ms; //!< single-query latencies
    std::vector<double> sliceMeans; //!< single phases: mean ms per slice
    std::vector<double> rates; //!< batch phases: queries/s per slice
};

} // anonymous namespace

RunResult
runRejectScan(const Options &opt)
{
    RunResult out;
    Rng rng(mix64(0x72656a6563742d73ull, opt.seed));
    const Population pop = makePopulation(rng, records);
    const QuerySet qs = makeQueries(rng, pop, knownQueries, unknownQueries);
    const std::string v3 = opt.workdir + "/reject.pcdb";

    // --- Set-up: addBatch build + v3 save + mmap open, repeated -----
    ThreadPool pool(benchThreads);
    std::optional<FingerprintStore> store;
    std::optional<MappedStore> mapped;
    std::vector<double> setups;
    for (std::size_t r = 0; r < setupRepeats; ++r) {
        store.reset();
        mapped.reset();
        Population copy = pop;
        const double t0 = now();
        store.emplace();
        store->setThreadPool(&pool);
        store->addBatch(std::move(copy.labels), std::move(copy.fps));
        const bool saved = saveStore(*store, v3);
        auto opened = MappedStore::open(v3);
        setups.push_back(now() - t0);
        out.checks.expect(saved && opened, "build, save and open: " +
                                               opened.error);
        if (!opened)
            return out;
        mapped.emplace(std::move(*opened));
    }
    AttackService mem(std::move(*store));
    mem.setThreadPool(&pool);
    AttackService mm(std::move(*mapped));
    const QueryOptions qo;

    // Batch verdict = single verdict; mmap verdict = in-memory
    // verdict. Checked before the adds change the in-memory store
    // (a reject reports its nearest record, which an add can move).
    // The timed known queries hold every bit of their chip (distance
    // 0), so lossy observations that miss ~2% of it are added here:
    // their nonzero distances must match the reference bit for bit.
    {
        Rng lr = rng.substream(5);
        std::vector<BitVec> sample;
        std::vector<std::size_t> lossyRecord;
        for (std::size_t i = 0; i < 64; ++i)
            sample.push_back(qs.known[i]);
        for (std::size_t i = 0; i < 64; ++i) {
            lossyRecord.push_back(qs.knownRecord[i]);
            sample.push_back(
                lossyObservation(lr, pop.fps[lossyRecord.back()].bits()));
        }
        for (std::size_t i = 0; i < 8; ++i)
            sample.push_back(qs.unknown[i]);
        const auto batch = mem.identifyBatch(sample, qo);
        std::size_t differ = 0, mapDiffer = 0, lossyWrong = 0;
        for (std::size_t i = 0; i < sample.size(); ++i) {
            const Seen single = seen(mem.identify({sample[i], qo}));
            differ += !(seen(batch[i]) == single);
            mapDiffer += !(seen(mm.identify({sample[i], qo})) == single);
            if (i >= 64 && i < 128) {
                const std::size_t rec = lossyRecord[i - 64];
                lossyWrong += !single.matched ||
                              single.label != chipLabel(rec) ||
                              single.distance == 0 ||
                              single.distance !=
                                  referenceDistance(sample[i],
                                                    pop.fps[rec].bits());
            }
        }
        out.checks.expect(differ == 0, "batch verdicts equal single (" +
                                           std::to_string(differ) +
                                           " differ)");
        out.checks.expect(mapDiffer == 0, "mmap verdicts equal in-memory (" +
                                              std::to_string(mapDiffer) +
                                              " differ)");
        out.checks.expect(lossyWrong == 0,
                          "lossy known queries match their chip at the "
                          "reference nonzero distance (" +
                              std::to_string(lossyWrong) + " wrong)");
    }

    // --- Warm-up (untimed) --------------------------------------------
    for (std::size_t i = 0; i < 256; ++i)
        mm.identify({qs.known[i], qo});

    // --- Phases -----------------------------------------------------------
    Answers mmKnown, mmUnknown, batchKnown, batchUnknown, tracedKnown;
    auto single = [&](Answers &a, bool unknown, double seconds) {
        const auto &pool_q = unknown ? qs.unknown : qs.known;
        const std::size_t first = a.ms.size();
        const double end = now() + seconds;
        do {
            const std::size_t q = a.cursor++ % pool_q.size();
            const double t0 = now();
            const IdentifyVerdict v = mm.identify({pool_q[q], qo});
            a.ms.push_back((now() - t0) * 1e3);
            a.verdicts.push_back(seen(v));
            a.query.push_back(q);
        } while (now() < end);
        a.sliceMeans.push_back(mean(a.ms, first));
    };
    auto batched = [&](Answers &a, bool unknown, double seconds,
                       SpanLog *trace) {
        const auto &pool_q = unknown ? qs.unknown : qs.known;
        const std::size_t size = unknown ? unknownBatch : knownBatch;
        std::size_t done = 0;
        const double t0 = now();
        do {
            std::vector<BitVec> b;
            std::vector<std::size_t> idx;
            for (std::size_t k = 0; k < size; ++k) {
                idx.push_back(a.cursor++ % pool_q.size());
                b.push_back(pool_q[idx.back()]);
            }
            SpanScope s(trace, "service.identifyBatch", 0, a.cursor / size);
            const auto vs = mem.identifyBatch(b, qo);
            s.end();
            for (std::size_t k = 0; k < vs.size(); ++k) {
                a.verdicts.push_back(seen(vs[k]));
                a.query.push_back(idx[k]);
            }
            done += vs.size();
        } while (now() < t0 + seconds);
        a.rates.push_back(static_cast<double>(done) / (now() - t0));
    };
    Rng ar = rng.substream(7);
    std::vector<double> addMs, addMeans;
    std::vector<BitVec> addPatterns;
    auto adds = [&](double) {
        const std::size_t first = addMs.size();
        for (std::size_t k = 0; k < addsPerSlice; ++k) {
            addPatterns.push_back(randomPattern(ar));
            std::vector<BitVec> obs;
            for (std::size_t s = 0; s < addStrings; ++s)
                obs.push_back(noisyObservation(ar, addPatterns.back()));
            const double t0 = now();
            const auto a = mem.addFingerprint(
                "added-" + std::to_string(addPatterns.size() - 1), obs);
            addMs.push_back((now() - t0) * 1e3);
            out.ops.add("add", 1, a.added ? 0 : 1);
        }
        addMeans.push_back(mean(addMs, first));
    };
    SpanLog batchSpans;
    std::vector<Phase> phases = {
        {knownSingleShare, [&](double s) { single(mmKnown, false, s); }},
        {unknownSingleShare, [&](double s) { single(mmUnknown, true, s); }},
        {knownBatchShare,
         [&](double s) { batched(batchKnown, false, s, nullptr); }},
        {unknownBatchShare,
         [&](double s) { batched(batchUnknown, true, s, nullptr); }},
        {0, adds},
    };
    if (opt.trace) // the known batches again, traced: tracing overhead
        phases.push_back({knownBatchShare, [&](double s) {
                              batched(tracedKnown, false, s, &batchSpans);
                          }});
    interleave(opt.seconds, cycles, phases);

    if (!opt.trace) {
        out.metrics.set("setup_s", median(setups), "s");
        out.metrics.set("peak_rss_mb", peakRssMb(), "MB");
        out.metrics.set("known_ms", median(mmKnown.sliceMeans), "ms");
        out.metrics.set("known_p99_ms", percentile(mmKnown.ms, 0.99), "ms");
        out.metrics.set("unknown_ms", median(mmUnknown.sliceMeans), "ms");
        out.metrics.set("known_qps", median(batchKnown.rates), "1/s");
        out.metrics.set("unknown_qps", median(batchUnknown.rates), "1/s");
        out.metrics.set("add_ms", median(addMeans), "ms");
    }
    std::printf("reject_scan: %zu records, set-up %.3f s (median of %zu), "
                "mmap single %zu known + %zu unknown, batch %zu known + "
                "%zu unknown, %zu adds, %zu slices per phase\n",
                records, median(setups), setups.size(), mmKnown.ms.size(),
                mmUnknown.ms.size(), batchKnown.verdicts.size(),
                batchUnknown.verdicts.size(), addMs.size(), cycles);

    // --- Checks ----------------------------------------------------------
    // Known: the generating chip, at the reference Algorithm 3
    // distance; unknown: rejected. Both backends, both paths. A wrong
    // verdict counts as a failed operation of its class.
    auto wrongKnown = [&](const Answers &a) {
        std::size_t wrong = 0;
        for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
            const Seen &v = a.verdicts[i];
            const std::size_t q = a.query[i];
            const std::size_t rec = qs.knownRecord[q];
            wrong += !v.matched || v.label != chipLabel(rec) ||
                     v.distance !=
                         referenceDistance(qs.known[q], pop.fps[rec].bits());
        }
        return wrong;
    };
    auto wrongUnknown = [](const Answers &a) {
        std::size_t wrong = 0;
        for (const Seen &v : a.verdicts)
            wrong += v.matched;
        return wrong;
    };
    const std::size_t wrong[4] = {wrongKnown(mmKnown), wrongUnknown(mmUnknown),
                                  wrongKnown(batchKnown),
                                  wrongUnknown(batchUnknown)};
    out.ops.add("mmap_known_identify", mmKnown.verdicts.size(), wrong[0]);
    out.ops.add("mmap_unknown_identify", mmUnknown.verdicts.size(), wrong[1]);
    out.ops.add("batch_known_identify", batchKnown.verdicts.size(), wrong[2]);
    out.ops.add("batch_unknown_identify", batchUnknown.verdicts.size(),
                wrong[3]);
    out.checks.expect(wrong[0] + wrong[2] == 0,
                      "known identify returns its chip at the reference "
                      "distance (" +
                          std::to_string(wrong[0] + wrong[2]) + " wrong)");
    out.checks.expect(wrong[1] + wrong[3] == 0,
                      "unknown identify rejects (" +
                          std::to_string(wrong[1] + wrong[3]) + " accepted)");

    std::vector<const BitVec *> all;
    for (const auto &fp : pop.fps)
        all.push_back(&fp.bits());
    for (const BitVec &p : addPatterns)
        all.push_back(&p);
    for (std::size_t u = 0; u < 4; ++u)
        out.checks.expect(noRecordUnderThreshold(qs.unknown[u], all),
                          "reject " + std::to_string(u) +
                              " has no record under threshold");

    // Every added chip is identified by a fresh observation of it.
    {
        std::size_t missed = 0;
        const std::size_t step =
            addPatterns.size() > 64 ? addPatterns.size() / 64 : 1;
        for (std::size_t k = 0; k < addPatterns.size(); k += step) {
            const auto v =
                mem.identify({noisyObservation(ar, addPatterns[k]), qo});
            missed += v.label != "added-" + std::to_string(k);
        }
        out.checks.expect(missed == 0, "added chips are identified (" +
                                           std::to_string(missed) +
                                           " missed)");
    }

    if (opt.trace) {
        LayerInputs li;
        li.population = &pop;
        li.queries = &qs;
        li.snapshotPath = v3;
        smallCampaign(opt.seed, li.stream, li.streamChip);
        SpanLog sweep;
        layerSweep(opt, li, out, sweep);
        out.metrics.set("trace.overhead_pct",
                        (median(batchKnown.rates) /
                             median(tracedKnown.rates) -
                         1) * 100,
                        "%");
        out.spans.push_back(std::move(batchSpans));
        out.spans.push_back(std::move(sweep));
    }
    return out;
}

} // namespace perfbench
