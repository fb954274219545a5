/**
 * @file
 * The per-layer sweep of a traced run.
 *
 * Every layer is measured from outside, by timing calls into its
 * public functions on the workload's own inputs and by reading the
 * counters the program already returns (IdentifyVerdict::delta,
 * ClusterStats, the Health opcode). Nested stages are replayed on
 * the same inputs: an identify is timed whole, then its sketch,
 * probe and confirm are timed one by one, and the fallback is the
 * remainder. Each timed call is a span; the metrics are medians of
 * span durations, so the span file and the printed figures agree.
 */

#include <algorithm>
#include <filesystem>
#include <thread>

#include <malloc.h>
#include <sys/prctl.h>

#include "bench.hh"
#include "core/cluster.hh"
#include "core/distance.hh"
#include "core/mapped_store.hh"
#include "core/minhash.hh"
#include "core/serialize.hh"
#include "core/service.hh"
#include "core/store.hh"
#include "core/wal.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

namespace
{

namespace fs = std::filesystem;
using namespace pcause;
using Clock = std::chrono::steady_clock;

constexpr std::size_t knownSample = 512;
constexpr std::size_t unknownSample = 16;
constexpr std::size_t durableAdds = 64;
constexpr std::size_t durableCheckpointEvery = 16;
constexpr std::size_t walAppends = 64;
constexpr double miniOpenRate = 500; //!< identifies/s
constexpr std::size_t miniOpenRequests = 500;

std::size_t
heapBytes()
{
    const struct mallinfo2 m = mallinfo2();
    return m.uordblks + m.hblkhd;
}

double
spanMedian(const SpanLog &log, const char *name)
{
    return median(log.durationsUs(name));
}

/** Time one call as a span; returns its duration in µs. */
template <typename F>
double
timed(SpanLog &log, const char *name, std::uint32_t parent,
      std::uint64_t request, F &&f)
{
    const std::uint32_t id = log.open(name, parent, request);
    f();
    log.close(id);
    const Span &s = log.spans()[id - 1];
    return static_cast<double>(s.endNs - s.startNs) / 1e3;
}

/** Confirm @p es against every candidate, as the store's shortlist
 *  scan does (the sparse bounded kernel at the match threshold). */
template <typename Source>
std::size_t
confirmAll(const BitVec &es, std::size_t weight, const Source &src,
           const std::vector<std::size_t> &cands)
{
    std::size_t accepted = 0;
    for (std::size_t c : cands)
        accepted += modifiedJaccardSparseBounded(es, weight, src.view(c),
                                                 matchThreshold) <
                    matchThreshold;
    return accepted;
}

} // anonymous namespace

void
layerSweep(const Options &opt, const LayerInputs &in, RunResult &out,
           SpanLog &log)
{
    Metrics &m = out.metrics;
    const Population &pop = *in.population;
    const QuerySet &qs = *in.queries;
    const std::size_t nKnown = std::min(knownSample, qs.known.size());
    const std::size_t nUnknown = std::min(unknownSample, qs.unknown.size());
    const QueryOptions qo;

    // --- store: build + footprint -----------------------------------------
    ThreadPool pool(benchThreads);
    const std::size_t heap0 = heapBytes();
    Population copy = pop;
    FingerprintStore built;
    built.setThreadPool(&pool);
    const double buildUs = timed(log, "store.addBatch", 0, 0, [&] {
        built.addBatch(std::move(copy.labels), std::move(copy.fps));
    });
    m.set("store.build_s", buildUs / 1e6, "s");
    m.set("store.bytes_per_record",
          static_cast<double>(heapBytes() - heap0) /
              static_cast<double>(pop.fps.size()),
          "B");
    built.setThreadPool(nullptr);
    AttackService svc(std::move(built));
    const FingerprintStore &store = *svc.store();
    const MinHashParams &prm = store.indexParams();

    // --- service / minhash / store: known queries --------------------------
    std::vector<double> directUs;
    std::size_t shortlistAccepts = 0, candidates = 0;
    for (std::size_t q = 0; q < nKnown; ++q) {
        // A stage costs most when the query's LSH buckets are not yet
        // in cache, as for a real query. So even queries time the
        // whole identify cold, odd ones time the stages cold and then
        // identify only for the counters.
        const BitVec &es = qs.known[q];
        const std::uint32_t root = log.open("sweep.known", 0, q);
        if (q % 2 == 1) {
            MinHashSketch sk;
            timed(log, "minhash.sketch", root, q,
                  [&] { sk = minhashSketch(es, prm); });
            std::vector<std::size_t> cands;
            timed(log, "minhash.probe", root, q,
                  [&] { cands = store.index().candidates(sk); });
            candidates += cands.size();
            const std::size_t w = es.popcount();
            timed(log, "store.confirm", root, q, [&] {
                confirmAll(es, w, store.sparseFingerprints(), cands);
            });
        }
        IdentifyVerdict v;
        const double us = timed(log, "service.identify.known", root, q,
                                [&] { v = svc.identify({es, qo}); });
        if (q % 2 == 0)
            directUs.push_back(us);
        shortlistAccepts += v.matched && v.delta.indexFallbacks == 0;
        log.close(root);
    }
    m.set("service.identify_us.known", median(directUs), "us");
    m.set("minhash.sketch_us", spanMedian(log, "minhash.sketch"), "us");
    m.set("minhash.probe_us", spanMedian(log, "minhash.probe"), "us");
    m.set("store.confirm_us", spanMedian(log, "store.confirm"), "us");
    m.set("minhash.candidates_per_query",
          static_cast<double>(candidates) / static_cast<double>(nKnown / 2),
          "count");
    m.set("store.shortlist_accept_ratio",
          static_cast<double>(shortlistAccepts) / static_cast<double>(nKnown),
          "ratio");

    // --- service / store: unknown queries, fallback = the remainder -------
    std::vector<double> fallbackMs, unknownUs;
    AttackStats unknownDelta;
    for (std::size_t q = 0; q < nUnknown; ++q) {
        const BitVec &es = qs.unknown[q];
        const std::uint32_t root = log.open("sweep.unknown", 0, q);
        MinHashSketch sk;
        std::vector<std::size_t> cands;
        const std::size_t w = es.popcount();
        const double parts =
            timed(log, "minhash.sketch", root, q,
                  [&] { sk = minhashSketch(es, prm); }) +
            timed(log, "minhash.probe", root, q,
                  [&] { cands = store.index().candidates(sk); }) +
            timed(log, "store.confirm", root, q, [&] {
                confirmAll(es, w, store.sparseFingerprints(), cands);
            });
        IdentifyVerdict v;
        const double whole = timed(log, "service.identify.unknown", root, q,
                                   [&] { v = svc.identify({es, qo}); });
        unknownUs.push_back(whole);
        unknownDelta += v.delta;
        fallbackMs.push_back((whole - parts) / 1e3);
        log.close(root);
    }
    m.set("service.identify_us.unknown", median(unknownUs), "us");
    m.set("store.fallback_ms", median(fallbackMs), "ms");
    const double scanned = static_cast<double>(unknownDelta.distancesComputed +
                                               unknownDelta.distancesPruned);
    m.set("store.records_per_fallback",
          (scanned - static_cast<double>(unknownDelta.candidatesScanned)) /
              static_cast<double>(std::max<std::uint64_t>(
                  1, unknownDelta.indexFallbacks)),
          "count");
    m.set("store.prune_ratio",
          static_cast<double>(unknownDelta.distancesPruned) /
              std::max(1.0, scanned),
          "ratio");

    // --- serialize / mapped_store ------------------------------------------
    const std::string saved = opt.workdir + "/sweep-save.pcdb";
    const double saveUs = timed(log, "serialize.saveStore", 0, 0,
                                [&] { saveStore(store, saved); });
    m.set("serialize.save_s", saveUs / 1e6, "s");
    m.set("serialize.bytes_per_record",
          static_cast<double>(fileBytes(saved)) /
              static_cast<double>(pop.fps.size()),
          "B");
    for (int i = 0; i < 5; ++i)
        timed(log, "mapped_store.open", 0, i,
              [&] { (void)MappedStore::open(saved); });
    m.set("mapped_store.open_ms", spanMedian(log, "mapped_store.open") / 1e3,
          "ms");
    {
        auto mapped = MappedStore::open(saved);
        out.checks.expect(static_cast<bool>(mapped),
                          "sweep mmap open: " + mapped.error);
        std::vector<double> mappedFallbackMs;
        for (std::size_t q = 0; mapped && q < nUnknown; ++q) {
            const BitVec &es = qs.unknown[q];
            const std::uint32_t root = log.open("sweep.mapped", 0, q);
            IdentifyResult r;
            const double whole =
                timed(log, "mapped_store.query", root, q,
                      [&] { r = mapped->query(es); });
            MinHashSketch sk;
            std::vector<std::size_t> cands;
            const std::size_t w = es.popcount();
            const double parts =
                timed(log, "minhash.sketch", root, q,
                      [&] { sk = minhashSketch(es, mapped->indexParams()); }) +
                timed(log, "mapped_store.candidates", root, q,
                      [&] { cands = mapped->candidates(sk); }) +
                timed(log, "store.confirm", root, q,
                      [&] { confirmAll(es, w, *mapped, cands); });
            mappedFallbackMs.push_back((whole - parts) / 1e3);
            out.checks.expect(!r.match, "sweep mapped unknown rejects");
            log.close(root);
        }
        m.set("mapped_store.fallback_ms", median(mappedFallbackMs), "ms");
    }
    fs::remove(saved);

    // --- minhash (cluster side) + cluster --------------------------------
    for (std::size_t i = 0; i < std::min<std::size_t>(512, in.stream.size());
         ++i)
        timed(log, "minhash.sign", 0, i, [&] {
            (void)minhashSignature(in.stream[i], MinHashParams{});
        });
    m.set("minhash.sign_us", spanMedian(log, "minhash.sign"), "us");
    {
        IndexedClusterer cl;
        std::vector<double> augmentUs, openUs;
        const std::uint32_t root = log.open("sweep.cluster", 0, 0);
        for (std::size_t i = 0; i < in.stream.size(); ++i) {
            const std::size_t before = cl.numClusters();
            const double us = timed(log, "cluster.addErrorString", root, i,
                                    [&] { cl.addErrorString(in.stream[i]); });
            (cl.numClusters() > before ? openUs : augmentUs).push_back(us);
        }
        log.close(root);
        const ClusterStats &st = cl.stats();
        m.set("cluster.ingest_us.augment", median(augmentUs), "us");
        m.set("cluster.ingest_us.open", median(openUs), "us");
        m.set("cluster.fallback_fraction",
              static_cast<double>(st.fallbackScans) /
                  static_cast<double>(st.outputs),
              "ratio");
        m.set("cluster.candidates_per_output",
              static_cast<double>(st.candidatesScanned) /
                  static_cast<double>(st.outputs),
              "count");
        m.set("cluster.resigns_per_augment",
              static_cast<double>(st.resigns) /
                  static_cast<double>(std::max<std::uint64_t>(1, st.augments)),
              "ratio");
        const PartitionScore score =
            scorePartition(cl.assignments(), in.streamChip);
        out.checks.expect(score.purity == 1.0 && score.ari == 1.0,
                          "sweep cluster stream purity and ARI are 1");
    }

    // --- wal: write + fsync per append -------------------------------------
    Rng rng(mix64(0x6c61796572732dull, opt.seed));
    {
        const std::string path = opt.workdir + "/sweep.wal";
        auto wal = Wal::create(path, pop.fps.size());
        out.checks.expect(static_cast<bool>(wal), "sweep wal create");
        const std::uintmax_t before = fileBytes(path);
        for (std::size_t k = 0; wal && k < walAppends; ++k) {
            const Fingerprint fp(randomPattern(rng), 3u);
            const std::string label = "wal-" + std::to_string(k);
            bool ok = false;
            timed(log, "wal.append", 0, k, [&] { ok = wal->append(label, fp); });
            out.checks.expect(ok, "sweep wal append");
        }
        m.set("wal.append_us", spanMedian(log, "wal.append"), "us");
        m.set("wal.bytes_per_add",
              static_cast<double>(fileBytes(path) - before) / walAppends, "B");
        fs::remove(path);
    }

    // --- service: durable open, adds, checkpoints -----------------------------
    {
        AttackService::DurabilityConfig dur;
        dur.dbPath = opt.workdir + "/sweep-durable.pcdb";
        dur.walPath = opt.workdir + "/sweep-durable.wal";
        dur.createIfMissing = false;
        dur.checkpointEvery = durableCheckpointEvery;
        fs::copy_file(in.snapshotPath, dur.dbPath,
                      fs::copy_options::overwrite_existing);
        fs::remove(dur.walPath);
        std::optional<AttackService> durable;
        const double openUs = timed(log, "service.openDurable", 0, 0, [&] {
            auto r = AttackService::openDurable(dur);
            if (r)
                durable.emplace(std::move(*r));
        });
        out.checks.expect(durable.has_value(), "sweep openDurable");
        m.set("service.open_durable_s", openUs / 1e6, "s");
        std::size_t checkpoints = 0;
        for (std::size_t k = 0; durable && k < durableAdds; ++k) {
            const BitVec chip = randomPattern(rng);
            std::vector<BitVec> obs;
            for (int s = 0; s < 3; ++s)
                obs.push_back(noisyObservation(rng, chip));
            AttackService::AddOutcome a;
            timed(log, "service.addFingerprint", 0, k, [&] {
                a = durable->addFingerprint("sweep-" + std::to_string(k), obs);
            });
            out.checks.expect(a.added, "sweep durable add");
            checkpoints += durable->walEntries() == 0;
        }
        for (int i = 0; durable && i < 3; ++i)
            timed(log, "service.checkpoint", 0, i,
                  [&] { (void)durable->checkpoint(); });
        m.set("service.add_us", spanMedian(log, "service.addFingerprint"),
              "us");
        m.set("service.checkpoint_ms",
              spanMedian(log, "service.checkpoint") / 1e3, "ms");
        m.set("service.checkpoints", static_cast<double>(checkpoints),
              "count");
        durable.reset();
        fs::remove(dur.dbPath);
        fs::remove(dur.walPath);
    }

    // --- serve: a served identify minus the direct one; frames ------------
    Pcaused own;
    std::uint16_t port = in.port;
    if (port == 0) {
        const double s = own.start({"--db", in.snapshotPath}, opt.workdir);
        out.checks.expect(s > 0, "sweep pcaused start: " + own.error());
        port = own.port();
    }
    if (port != 0) {
        serve::Client c;
        out.checks.expect(c.connect(port).empty(), "sweep connect");
        std::vector<double> servedUs;
        std::size_t wrong = 0;
        for (std::size_t q = 0; q < nKnown; ++q) {
            const std::uint32_t root = log.open("serve.request", 0, q);
            IdentifyRequest req{qs.known[q], qo};
            serve::Payload frame;
            serve::Reply reply;
            LoadResult<IdentifyVerdict> v;
            const double us =
                timed(log, "protocol.encodeIdentify", root, q,
                      [&] { frame = serve::encodeIdentify(req); }) +
                timed(log, "client.exchange", root, q,
                      [&] { reply = c.exchange(frame); }) +
                timed(log, "protocol.decodeVerdict", root, q,
                      [&] { v = serve::decodeVerdict(reply.payload); });
            log.close(root);
            servedUs.push_back(us);
            wrong += !v || v->label != pop.labels[qs.knownRecord[q]];
        }
        out.checks.expect(wrong == 0, "sweep served known identify");
        m.set("serve.overhead_us.known", median(servedUs) - median(directUs),
              "us");
        m.set("serve.encode_us", spanMedian(log, "protocol.encodeIdentify"),
              "us");
        m.set("serve.decode_us", spanMedian(log, "protocol.decodeVerdict"),
              "us");

        // A short open loop on one connection: generator lag, BUSY.
        prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
        std::vector<double> lagMs;
        std::size_t busy = 0;
        const auto t0 = Clock::now();
        const auto period = std::chrono::duration<double>(1.0 / miniOpenRate);
        for (std::size_t i = 0; i < miniOpenRequests; ++i) {
            const auto due =
                t0 + std::chrono::duration_cast<Clock::duration>(period * i);
            std::this_thread::sleep_until(due);
            lagMs.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() - due)
                    .count());
            const serve::Reply r = c.exchange(serve::encodeIdentify(
                {qs.known[i % qs.known.size()], qo}));
            busy += r.ok() && *r.opcode == serve::Opcode::Busy;
        }
        m.set("serve.send_lag_ms", median(lagMs), "ms");
        m.set("serve.busy_replies", static_cast<double>(busy), "count");
    }
    if (in.port == 0)
        own.stop();
}

} // namespace perfbench
