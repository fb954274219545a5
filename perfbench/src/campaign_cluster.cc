/**
 * @file
 * campaign_cluster: an Algorithm 4 eavesdropper over a fleet.
 *
 * A core/campaign fleet of `chips` chips emits `outputs` error
 * strings; they are synthesized before timing (that synthesis is
 * this workload's set-up) and streamed through
 * IndexedClusterer::addErrorString, one whole campaign per round
 * from clusterer construction on, for as many rounds as the run
 * allows. Signing, LSH probing, confirming and re-signing do almost
 * all the work; one output per chip opens a cluster through the
 * new-cluster fallback scan. No network and no durable store.
 * After each round the discovered clusters are added to a new
 * identification store (the eavesdropper turning clusters into a
 * database).
 */

#include <optional>
#include <unordered_set>

#include "bench.hh"
#include "core/campaign.hh"
#include "core/cluster.hh"
#include "core/serialize.hh"
#include "core/service.hh"
#include "core/store.hh"

namespace perfbench
{

namespace
{

using namespace pcause;

constexpr std::size_t fleetChips = 3000;
constexpr std::uint64_t fleetOutputs = 100000;
constexpr std::size_t setupRepeats = 5;

CampaignSpec
fleet(std::uint64_t seed)
{
    CampaignSpec spec;
    spec.chips = fleetChips;
    spec.outputs = fleetOutputs;
    spec.universeBits = universeBits;
    spec.fingerprintWeight = fingerprintWeight;
    spec.seed = mix64(0x636c75737465722dull, seed);
    return spec;
}

/** One clustering round's per-output timings, split by class. */
struct Round
{
    std::vector<double> augmentUs, openUs;
    std::vector<std::size_t> assignments;
    ClusterStats stats;
    double seconds = 0;
};

/** Cluster every output into a new @p cl (kept for the caller). */
Round
clusterRound(const std::vector<BitVec> &outputs, SpanLog *trace,
             std::uint64_t round, std::optional<IndexedClusterer> &keep)
{
    Round r;
    r.augmentUs.reserve(outputs.size());
    const double t0 = now();
    SpanScope all(trace, "cluster.round", 0, round);
    IndexedClusterer &cl = keep.emplace();
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        const std::size_t before = cl.numClusters();
        SpanScope s(trace, "cluster.addErrorString", all.id(), i);
        const double a = now();
        cl.addErrorString(outputs[i]);
        const double us = (now() - a) * 1e6;
        s.end();
        (cl.numClusters() > before ? r.openUs : r.augmentUs).push_back(us);
    }
    all.end();
    r.seconds = now() - t0;
    r.assignments = cl.assignments();
    r.stats = cl.stats();
    return r;
}

/** Synthesize a campaign: bases once per chip, then every output. */
void
synthesize(const CampaignSpec &spec, std::vector<BitVec> &outputs,
           std::vector<std::size_t> &chip)
{
    std::vector<BitVec> bases;
    bases.reserve(spec.chips);
    for (std::size_t c = 0; c < spec.chips; ++c)
        bases.push_back(campaignChipBase(spec, c));
    outputs.clear();
    chip.clear();
    outputs.reserve(spec.outputs);
    chip.reserve(spec.outputs);
    for (std::uint64_t i = 0; i < spec.outputs; ++i) {
        chip.push_back(campaignChipOf(spec, i));
        outputs.push_back(campaignObservation(spec, bases[chip.back()], i));
    }
}

} // anonymous namespace

void
smallCampaign(std::uint64_t seed, std::vector<BitVec> &stream,
              std::vector<std::size_t> &chip)
{
    CampaignSpec spec = fleet(seed);
    spec.chips = 500;
    spec.outputs = 10000;
    synthesize(spec, stream, chip);
}

RunResult
runCampaignCluster(const Options &opt)
{
    RunResult out;
    const CampaignSpec spec = fleet(opt.seed);

    // --- Set-up: campaign synthesis, repeated; median -------------------
    std::vector<BitVec> outputs;
    std::vector<std::size_t> chip;
    std::vector<double> setups;
    for (std::size_t r = 0; r < setupRepeats; ++r) {
        const double t0 = now();
        synthesize(spec, outputs, chip);
        setups.push_back(now() - t0);
    }

    // --- Warm-up (untimed): a tenth of the stream ------------------------
    {
        std::vector<BitVec> head(outputs.begin(),
                                 outputs.begin() + outputs.size() / 10);
        std::optional<IndexedClusterer> scratch;
        clusterRound(head, nullptr, 0, scratch);
    }

    // --- Whole campaigns until the run's time is spent ------------------
    // Each round clusters the stream from a new clusterer, then adds
    // the discovered clusters to a new identification store.
    // Trace runs trace every other round: the rate difference is the
    // tracing overhead.
    std::vector<Round> rounds;
    std::vector<double> tracedRates;
    SpanLog roundSpans;
    std::optional<IndexedClusterer> latest;
    std::optional<AttackService> discovered;
    std::vector<double> addMs, addMeans;
    const double end = now() + opt.seconds;
    do {
        if (opt.trace && rounds.size() % 2 == 1) {
            const Round r = clusterRound(outputs, &roundSpans,
                                         rounds.size(), latest);
            tracedRates.push_back(outputs.size() / r.seconds);
        }
        rounds.push_back(
            clusterRound(outputs, nullptr, rounds.size(), latest));
        discovered.emplace(FingerprintStore{});
        const std::size_t firstAdd = addMs.size();
        for (std::size_t c = 0; c < latest->numClusters(); ++c) {
            Fingerprint fp = latest->fingerprint(c);
            const double t0 = now();
            const auto a = discovered->addRecord(
                "cluster-" + std::to_string(c), std::move(fp));
            addMs.push_back((now() - t0) * 1e3);
            out.ops.add("add_discovered", 1, a.added ? 0 : 1);
        }
        addMeans.push_back(mean(addMs, firstAdd));
    } while (now() < end || (opt.trace && tracedRates.empty()));
    const IndexedClusterer &cl = *latest;

    // Per round: the mean ingest time of each class, the outputs per
    // second of the whole round, and opens per second of their own
    // time; each metric is the median over rounds. p99 pools rounds.
    std::vector<double> augmentUs, augmentMeans, openMeans, outputRates,
        openRates;
    for (const Round &r : rounds) {
        augmentUs.insert(augmentUs.end(), r.augmentUs.begin(),
                         r.augmentUs.end());
        augmentMeans.push_back(mean(r.augmentUs));
        openMeans.push_back(mean(r.openUs));
        outputRates.push_back(outputs.size() / r.seconds);
        openRates.push_back(1e6 / openMeans.back());
    }

    const Round &last = rounds.back();

    std::uint64_t ingested = 0;
    for (const Round &r : rounds)
        ingested += r.assignments.size();
    out.ops.add("cluster_ingest", ingested, 0);

    if (!opt.trace) {
        out.metrics.set("setup_s", median(setups), "s");
        out.metrics.set("peak_rss_mb", peakRssMb(), "MB");
        out.metrics.set("known_ms", median(augmentMeans) / 1e3, "ms");
        out.metrics.set("known_p99_ms", percentile(augmentUs, 0.99) / 1e3,
                        "ms");
        out.metrics.set("unknown_ms", median(openMeans) / 1e3, "ms");
        out.metrics.set("known_qps", median(outputRates), "1/s");
        out.metrics.set("unknown_qps", median(openRates), "1/s");
        out.metrics.set("add_ms", median(addMeans), "ms");
    }
    std::printf("campaign_cluster: %zu chips, %llu outputs, synthesis %.3f "
                "s, %zu rounds, %.0f outputs/s, %zu clusters, %llu "
                "fallback scans, %llu resigns\n",
                spec.chips, static_cast<unsigned long long>(spec.outputs),
                median(setups), rounds.size(), median(outputRates),
                cl.numClusters(),
                static_cast<unsigned long long>(last.stats.fallbackScans),
                static_cast<unsigned long long>(last.stats.resigns));

    // --- Checks ----------------------------------------------------------
    // The partition against campaignChipOf: purity 1, ARI 1, one
    // cluster per chip that emitted; every round the same partition.
    const PartitionScore score = scorePartition(last.assignments, chip);
    const std::unordered_set<std::size_t> emitted(chip.begin(), chip.end());
    out.checks.expect(score.purity == 1.0, "campaign purity is 1 (" +
                                               std::to_string(score.purity) +
                                               ")");
    out.checks.expect(score.ari == 1.0,
                      "campaign ARI is 1 (" + std::to_string(score.ari) + ")");
    out.checks.expect(score.clusters == emitted.size(),
                      "one cluster per chip (" +
                          std::to_string(score.clusters) + " clusters, " +
                          std::to_string(emitted.size()) + " chips)");
    bool sameEveryRound = true;
    for (const Round &r : rounds)
        sameEveryRound = sameEveryRound && r.assignments == last.assignments;
    out.checks.expect(sameEveryRound, "every round gives the same partition");
    // The discovered store attributes outputs to their cluster.
    {
        std::size_t wrong = 0;
        for (std::size_t i = 0; i < outputs.size(); i += 997) {
            const auto v = discovered->identify({outputs[i], {}});
            wrong += v.label !=
                     "cluster-" + std::to_string(last.assignments[i]);
        }
        out.checks.expect(wrong == 0, "discovered store attributes outputs "
                                      "to their cluster (" +
                                          std::to_string(wrong) + " wrong)");
    }

    if (opt.trace) {
        std::vector<double> untracedRates;
        for (const Round &r : rounds)
            untracedRates.push_back(outputs.size() / r.seconds);

        Population pop;
        for (std::size_t c = 0; c < cl.numClusters(); ++c) {
            pop.labels.push_back("cluster-" + std::to_string(c));
            pop.fps.push_back(cl.fingerprint(c));
        }
        QuerySet qs;
        for (std::size_t i = 0; i < outputs.size() && qs.known.size() < 4096;
             i += 7) {
            qs.known.push_back(outputs[i]);
            qs.knownRecord.push_back(last.assignments[i]);
        }
        Rng rng(mix64(0x756e6b6e6f776eull, opt.seed));
        for (std::size_t u = 0; u < 64; ++u)
            qs.unknown.push_back(noisyObservation(rng, randomPattern(rng)));
        const std::string v3 = opt.workdir + "/discovered.pcdb";
        out.checks.expect(saveStore(*discovered->store(), v3),
                          "save discovered store");

        LayerInputs li;
        li.population = &pop;
        li.queries = &qs;
        li.snapshotPath = v3;
        li.stream.assign(outputs.begin(), outputs.begin() + 20000);
        li.streamChip.assign(chip.begin(), chip.begin() + 20000);
        SpanLog sweep;
        layerSweep(opt, li, out, sweep);
        out.metrics.set("trace.overhead_pct",
                        (median(untracedRates) / median(tracedRates) - 1) *
                            100,
                        "%");
        out.spans.push_back(std::move(roundSpans));
        out.spans.push_back(std::move(sweep));
    }
    return out;
}

} // namespace perfbench
