/**
 * @file
 * serve_mixed: the deployed attacker service under a mixed load.
 *
 * A real pcaused serves a 10k-record v3 snapshot durably (--wal)
 * after replaying a journal left by an earlier session. The load
 * comes from this process only:
 *   - open loop: identifies at a fixed offered rate in the 15:1
 *     known:unknown mix, knowns on one connection and unknowns on
 *     another, each timed from its scheduled send time, with durable
 *     Characterize adds beside them on a third connection, crossing
 *     several --checkpoint-every boundaries;
 *   - closed loop: back-to-back known identifies, then back-to-back
 *     unknown identifies, on one connection, no adds.
 * One connection per class, because once two identifies meet in the
 * batcher its gather window makes every later drain wait the full
 * window, so throughput and latency jump between two levels from
 * run to run (see README.md, "Known stalls").
 * At 10k records a known identify costs ~45 µs of kernel time, so
 * its served latency is mostly frames, the batcher and syscalls;
 * adds share the service lock with reads, so a change that speeds
 * one by starving the other shows here.
 */

#include <algorithm>
#include <filesystem>
#include <thread>

#include <sys/prctl.h>

#include "bench.hh"
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

constexpr std::size_t records = 10000;
constexpr std::size_t journalEntries = 256; //!< replayed at start-up
constexpr std::size_t checkpointEvery = 64;
constexpr double offeredRate = 800;   //!< identifies/s, open loop
constexpr double addRate = 40;        //!< Characterize/s, open loop
constexpr std::size_t identifyConnections = 2; //!< knowns, unknowns
constexpr std::size_t setupRepeats = 3;
constexpr std::size_t knownQueries = 4096;
constexpr std::size_t unknownQueries = 256;
constexpr std::size_t addStrings = 3; //!< error strings per add
constexpr std::size_t cycles = 5;
constexpr double openShare = 0.5;
constexpr double closedShare = 0.25;

/** One served identify, kept for the checks after the run. */
struct Served
{
    std::uint32_t query = 0;
    bool known = false;
    bool matched = false;
    bool labelOk = false;
    double distance = 0;
};

/** What one client thread saw. */
struct ClientLog
{
    std::vector<double> knownMs, unknownMs, lagMs, addMs;
    std::vector<Served> served;
    std::vector<std::uint64_t> addedRecord; //!< per acked add, in order
    std::vector<std::size_t> addedChip;
    std::uint64_t attempted = 0, failed = 0, busy = 0;
    std::uint64_t addAttempted = 0, addFailed = 0;
    std::size_t completed = 0;
    std::uint64_t cursor = 0;  //!< closed loops: next request
    std::vector<double> rates; //!< closed loops: identifies/s per slice
    SpanLog spans;
};

struct Inputs
{
    Population pop;
    QuerySet qs;
    std::vector<BitVec> addPatterns; //!< fresh chips to characterize
    std::vector<std::vector<BitVec>> addObservations;
    Population journal; //!< chips already in the journal
};

/** Identify request @p i of the open-loop schedule. */
bool
isUnknown(std::uint64_t i)
{
    return i % (knownPerUnknown + 1) == knownPerUnknown;
}

/**
 * Send one identify and record the outcome. @p due is the scheduled
 * send time (open loop) or the actual send time (closed loop).
 */
void
identifyOnce(serve::Client &c, const Inputs &in, std::uint64_t i,
             bool unknown, Clock::time_point due, ClientLog &log,
             SpanLog *trace)
{
    const std::size_t q =
        unknown ? (i / (knownPerUnknown + 1)) % in.qs.unknown.size()
                : i % in.qs.known.size();
    IdentifyRequest req;
    req.errorString = unknown ? in.qs.unknown[q] : in.qs.known[q];

    SpanScope root(trace, "serve.request", 0, i);
    serve::Payload frame;
    {
        SpanScope s(trace, "protocol.encodeIdentify", root.id(), i);
        frame = serve::encodeIdentify(req);
    }
    serve::Reply reply;
    {
        SpanScope s(trace, "client.exchange", root.id(), i);
        reply = c.exchange(frame);
    }
    const auto done = Clock::now();
    ++log.attempted;
    if (!reply.ok() || *reply.opcode != serve::Opcode::Verdict) {
        ++log.failed;
        if (reply.ok() && *reply.opcode == serve::Opcode::Busy)
            ++log.busy;
        return;
    }
    LoadResult<IdentifyVerdict> v;
    {
        SpanScope s(trace, "protocol.decodeVerdict", root.id(), i);
        v = serve::decodeVerdict(reply.payload);
    }
    root.end();
    if (!v) {
        ++log.failed;
        return;
    }
    const double ms =
        std::chrono::duration<double, std::milli>(done - due).count();
    (unknown ? log.unknownMs : log.knownMs).push_back(ms);
    ++log.completed;
    {
        Served s;
        s.query = static_cast<std::uint32_t>(q);
        s.known = !unknown;
        s.matched = v->matched;
        s.distance = v->distance;
        s.labelOk = unknown ? v->label.empty()
                            : v->label == chipLabel(in.qs.knownRecord[q]);
        log.served.push_back(s);
    }
}

/**
 * The open-loop identify generator for one connection over requests
 * [first, last) of the schedule, request first due at @p t0: lane 0
 * sends the known requests, lane 1 the unknown ones.
 */
void
openLoopIdentify(std::uint16_t port, const Inputs &in, std::size_t lane,
                 Clock::time_point t0, std::uint64_t first,
                 std::uint64_t last, ClientLog &log, SpanLog *trace)
{
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    serve::Client c;
    const bool connected = c.connect(port).empty();
    const auto period = std::chrono::duration<double>(1.0 / offeredRate);
    for (std::uint64_t i = first; i < last; ++i) {
        if (isUnknown(i) != (lane == 1))
            continue;
        if (!connected) {
            ++log.attempted;
            ++log.failed;
            continue;
        }
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  period * (i - first));
        std::this_thread::sleep_until(due);
        log.lagMs.push_back(std::chrono::duration<double, std::milli>(
                                Clock::now() - due)
                                .count());
        identifyOnce(c, in, i, isUnknown(i), due, log, trace);
    }
}

/** The open-loop durable add generator (one connection), adds
 *  [first, last) of the schedule, add first due at @p t0. */
void
openLoopAdd(std::uint16_t port, const Inputs &in, Clock::time_point t0,
            std::uint64_t first, std::uint64_t last, ClientLog &log,
            SpanLog *trace)
{
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    serve::Client c;
    const bool connected = c.connect(port).empty();
    const auto period = std::chrono::duration<double>(1.0 / addRate);
    for (std::uint64_t k = first; k < last; ++k) {
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  period * (k - first));
        std::this_thread::sleep_until(due);
        ++log.addAttempted;
        if (!connected) {
            ++log.addFailed;
            continue;
        }
        serve::CharacterizeRequest req;
        req.label = "added-" + std::to_string(k);
        req.errorStrings = in.addObservations[k];
        SpanScope root(trace, "serve.characterize", 0, k);
        serve::Reply reply;
        {
            const serve::Payload frame = serve::encodeCharacterize(req);
            SpanScope s(trace, "client.exchange", root.id(), k);
            reply = c.exchange(frame);
        }
        const auto done = Clock::now();
        root.end();
        if (!reply.ok() || *reply.opcode != serve::Opcode::Added) {
            ++log.addFailed;
            continue;
        }
        const auto a = serve::decodeAdded(reply.payload);
        if (!a || !a->added) {
            ++log.addFailed;
            continue;
        }
        log.addMs.push_back(
            std::chrono::duration<double, std::milli>(done - due).count());
        log.addedRecord.push_back(a->record);
        log.addedChip.push_back(k);
    }
}

/**
 * Closed loop: back-to-back identifies of one class for @p seconds
 * on one connection, continuing from log.cursor. Appends the slice's
 * completed identifies per second to log.rates.
 */
void
closedLoop(std::uint16_t port, const Inputs &in, bool unknown,
           double seconds, ClientLog &log, SpanLog *trace)
{
    serve::Client c;
    if (!c.connect(port).empty()) {
        ++log.attempted;
        ++log.failed;
        return;
    }
    const std::size_t before = log.completed;
    const double t0 = now();
    do {
        const std::uint64_t i = log.cursor++;
        const std::uint64_t idx =
            unknown ? i * (knownPerUnknown + 1) + knownPerUnknown : i;
        identifyOnce(c, in, idx, unknown, Clock::now(), log, trace);
    } while (now() < t0 + seconds);
    log.rates.push_back(static_cast<double>(log.completed - before) /
                        (now() - t0));
}

Inputs
makeInputs(std::uint64_t seed, std::size_t adds)
{
    Rng rng(mix64(0x73657276652d6d78ull, seed));
    Inputs in;
    in.pop = makePopulation(rng, records);
    in.qs = makeQueries(rng, in.pop, knownQueries, unknownQueries);
    Rng jr = rng.substream(1);
    for (std::size_t j = 0; j < journalEntries; ++j) {
        in.journal.labels.push_back("journal-" + std::to_string(j));
        in.journal.fps.emplace_back(randomPattern(jr), 3u);
    }
    Rng ar = rng.substream(2);
    for (std::size_t k = 0; k < adds; ++k) {
        in.addPatterns.push_back(randomPattern(ar));
        std::vector<BitVec> obs;
        for (std::size_t s = 0; s < addStrings; ++s)
            obs.push_back(noisyObservation(ar, in.addPatterns.back()));
        in.addObservations.push_back(std::move(obs));
    }
    return in;
}

void
merge(const std::vector<ClientLog> &logs, ClientLog &all)
{
    for (const ClientLog &l : logs) {
        auto cat = [](std::vector<double> &a, const std::vector<double> &b) {
            a.insert(a.end(), b.begin(), b.end());
        };
        cat(all.knownMs, l.knownMs);
        cat(all.unknownMs, l.unknownMs);
        cat(all.lagMs, l.lagMs);
        cat(all.addMs, l.addMs);
        all.served.insert(all.served.end(), l.served.begin(),
                          l.served.end());
        all.attempted += l.attempted;
        all.failed += l.failed;
        all.busy += l.busy;
        all.completed += l.completed;
    }
}

} // anonymous namespace

RunResult
runServeMixed(const Options &opt)
{
    RunResult out;
    // The open loop gets openShare of the run, each closed loop
    // closedShare, interleaved in `cycles` slices.
    const double openSeconds = opt.seconds * openShare;
    const std::uint64_t sliceIdentifies = static_cast<std::uint64_t>(
        openSeconds / cycles * offeredRate);
    const std::uint64_t sliceAdds =
        static_cast<std::uint64_t>(openSeconds / cycles * addRate);

    const Inputs in = makeInputs(opt.seed, sliceAdds * cycles);
    const std::string base = opt.workdir + "/base.pcdb";
    const std::string baseWal = opt.workdir + "/base.wal";
    const std::string db = opt.workdir + "/serve.pcdb";
    const std::string wal = opt.workdir + "/serve.wal";

    ThreadPool pool(benchThreads);
    {
        FingerprintStore store;
        store.setThreadPool(&pool);
        Population copy = in.pop;
        store.addBatch(std::move(copy.labels), std::move(copy.fps));
        out.checks.expect(saveStore(store, base), "save base snapshot");
        auto w = Wal::create(baseWal, records);
        out.checks.expect(static_cast<bool>(w), "create journal");
        if (w)
            for (std::size_t j = 0; j < journalEntries; ++j)
                w->append(in.journal.labels[j], in.journal.fps[j]);
    }

    // --- Set-up: spawn -> Health "serving", repeated; median. -------
    const std::vector<std::string> args = {
        "--db", db, "--wal", wal, "--checkpoint-every",
        std::to_string(checkpointEvery)};
    Pcaused server;
    std::vector<double> setups;
    for (std::size_t r = 0; r < setupRepeats; ++r) {
        fs::copy_file(base, db, fs::copy_options::overwrite_existing);
        fs::copy_file(baseWal, wal, fs::copy_options::overwrite_existing);
        const double s = server.start(args, opt.workdir);
        out.checks.expect(s > 0, "pcaused start: " + server.error());
        if (s <= 0)
            return out;
        setups.push_back(s);
        if (r + 1 < setupRepeats)
            out.checks.expect(server.stop() == 0, "pcaused drain exit");
    }
    const std::uint16_t port = server.port();

    // The direct reference: the same records, in process.
    Population copy = in.pop;
    FingerprintStore direct;
    direct.addBatch(std::move(copy.labels), std::move(copy.fps));
    AttackService directSvc(std::move(direct));

    // --- Warm-up (untimed) -----------------------------------------
    {
        ClientLog warm;
        closedLoop(port, in, false, 0.5, warm, nullptr);
    }

    // --- Open loop and closed loops, interleaved ---------------------
    std::vector<ClientLog> openLogs(identifyConnections + 1);
    ClientLog closedKnown, closedUnknown, tracedKnown;
    SpanLog *const noTrace = nullptr;
    auto traceOf = [&](ClientLog &l) {
        return opt.trace ? &l.spans : noTrace;
    };
    std::uint64_t slice = 0;
    std::vector<double> knownMeans, unknownMeans, addMeans;
    auto openSlice = [&](double) {
        const std::size_t firstKnown = openLogs[0].knownMs.size();
        const std::size_t firstUnknown = openLogs[1].unknownMs.size();
        const std::size_t firstAdd = openLogs.back().addMs.size();
        const auto t0 = Clock::now() + std::chrono::milliseconds(5);
        std::vector<std::thread> threads;
        for (std::size_t lane = 0; lane < identifyConnections; ++lane)
            threads.emplace_back(openLoopIdentify, port, std::cref(in), lane,
                                 t0, slice * sliceIdentifies,
                                 (slice + 1) * sliceIdentifies,
                                 std::ref(openLogs[lane]),
                                 traceOf(openLogs[lane]));
        threads.emplace_back(openLoopAdd, port, std::cref(in), t0,
                             slice * sliceAdds, (slice + 1) * sliceAdds,
                             std::ref(openLogs.back()),
                             traceOf(openLogs.back()));
        for (std::thread &t : threads)
            t.join();
        knownMeans.push_back(mean(openLogs[0].knownMs, firstKnown));
        unknownMeans.push_back(mean(openLogs[1].unknownMs, firstUnknown));
        addMeans.push_back(mean(openLogs.back().addMs, firstAdd));
        ++slice;
    };
    std::vector<Phase> phases = {
        {openShare, openSlice},
        {closedShare,
         [&](double s) { closedLoop(port, in, false, s, closedKnown, noTrace); }},
        {closedShare, [&](double s) {
             closedLoop(port, in, true, s, closedUnknown, noTrace);
         }},
    };
    if (opt.trace) // the closed known loop again, traced: tracing overhead
        phases.push_back({closedShare, [&](double s) {
                              closedLoop(port, in, false, s, tracedKnown,
                                         &tracedKnown.spans);
                          }});
    interleave(opt.seconds, cycles, phases);
    ClientLog open;
    merge(openLogs, open);
    const ClientLog &adder = openLogs.back();

    const double rss = peakRssMb(server.pid());
    if (opt.trace) {
        LayerInputs li;
        li.population = &in.pop;
        li.queries = &in.qs;
        li.snapshotPath = base;
        li.port = port;
        smallCampaign(opt.seed, li.stream, li.streamChip);
        SpanLog sweep;
        layerSweep(opt, li, out, sweep);
        out.metrics.set("trace.overhead_pct",
                        (median(closedKnown.rates) /
                             median(tracedKnown.rates) -
                         1) * 100,
                        "%");
        out.metrics.set("serve.send_lag_ms", median(open.lagMs), "ms");
        out.metrics.set("serve.busy_replies", static_cast<double>(open.busy),
                        "count");
        out.metrics.set("service.checkpoints",
                        static_cast<double>(adder.addedRecord.size() /
                                            checkpointEvery),
                        "count");
        for (ClientLog &l : openLogs)
            out.spans.push_back(std::move(l.spans));
        out.spans.push_back(std::move(tracedKnown.spans));
        out.spans.push_back(std::move(sweep));
    }

    // --- pcaused's own view, then the graceful drain --------------------
    {
        serve::Client c;
        std::string health;
        if (c.connect(port).empty())
            health = c.health().value_or("");
        const std::size_t expectEntries =
            adder.addedRecord.size() % checkpointEvery;
        out.checks.expect(
            health.find("\"wal_entries\": " + std::to_string(expectEntries)) !=
                std::string::npos,
            "Health wal_entries = acked adds mod checkpoint-every");
    }
    out.checks.expect(server.stop() == 0, "pcaused SIGTERM drain exits 0");

    // --- Metrics ---------------------------------------------------------
    if (!opt.trace) {
        out.metrics.set("setup_s", median(setups), "s");
        out.metrics.set("peak_rss_mb", rss, "MB");
        out.metrics.set("known_ms", median(knownMeans), "ms");
        out.metrics.set("known_p99_ms", percentile(open.knownMs, 0.99), "ms");
        out.metrics.set("unknown_ms", median(unknownMeans), "ms");
        out.metrics.set("add_ms", median(addMeans), "ms");
        out.metrics.set("known_qps", median(closedKnown.rates), "1/s");
        out.metrics.set("unknown_qps", median(closedUnknown.rates), "1/s");
    }

    // --- Checks ------------------------------------------------------------
    // Served verdicts: the right chip, at the distance the
    // benchmark's own Algorithm 3 gives, and equal to the direct
    // single-query verdict (served identifies run through the
    // batcher's identifyBatch). A wrong verdict is a failed operation.
    std::vector<char> compared(in.qs.known.size(), 0);
    std::size_t batchMismatch = 0;
    auto wrongVerdicts = [&](const ClientLog &log) {
        std::size_t wrong = 0;
        for (const Served &s : log.served) {
            if (!s.known) {
                wrong += s.matched || !s.labelOk;
                continue;
            }
            const BitVec &q = in.qs.known[s.query];
            const std::size_t rec = in.qs.knownRecord[s.query];
            wrong += !s.matched || !s.labelOk ||
                     s.distance != referenceDistance(q, in.pop.fps[rec].bits());
            if (!compared[s.query]) {
                compared[s.query] = 1;
                const IdentifyVerdict d = directSvc.identify({q, {}});
                batchMismatch += d.matched != s.matched ||
                                 d.distance != s.distance ||
                                 d.label != chipLabel(rec);
            }
        }
        return wrong;
    };
    const std::size_t wrongOpen = wrongVerdicts(open);
    const std::size_t wrongKnown = wrongVerdicts(closedKnown);
    const std::size_t wrongUnknown = wrongVerdicts(closedUnknown);
    out.ops.add("open_identify", open.attempted, open.failed + wrongOpen);
    out.ops.add("open_characterize", adder.addAttempted, adder.addFailed);
    out.ops.add("closed_known_identify", closedKnown.attempted,
                closedKnown.failed + wrongKnown);
    out.ops.add("closed_unknown_identify", closedUnknown.attempted,
                closedUnknown.failed + wrongUnknown);
    out.checks.expect(wrongOpen + wrongKnown + wrongUnknown == 0,
                      "served identify returns the generating chip at the "
                      "reference distance, and rejects unknowns (" +
                          std::to_string(wrongOpen + wrongKnown +
                                         wrongUnknown) +
                          " wrong)");
    out.checks.expect(batchMismatch == 0,
                      "served (batched) verdict equals direct single "
                      "verdict (" +
                          std::to_string(batchMismatch) + " differ)");
    std::printf("serve_mixed: open loop %.0f/s for %.1f s (%zu known, %zu "
                "unknown served, %llu busy, send lag p50 %.3f ms p99 %.3f "
                "ms), %zu acked adds, closed loop %zu known + %zu unknown\n",
                offeredRate, openSeconds, open.knownMs.size(),
                open.unknownMs.size(),
                static_cast<unsigned long long>(open.busy),
                median(open.lagMs), percentile(open.lagMs, 0.99),
                adder.addedRecord.size(), closedKnown.completed,
                closedUnknown.completed);

    // A sample of rejects: the benchmark's own linear scan over every
    // record the server held finds nothing under the threshold.
    std::vector<const BitVec *> all;
    for (const auto &fp : in.pop.fps)
        all.push_back(&fp.bits());
    for (const auto &fp : in.journal.fps)
        all.push_back(&fp.bits());
    for (std::size_t k : adder.addedChip)
        all.push_back(&in.addPatterns[k]);
    for (std::size_t u = 0; u < 16 && u < in.qs.unknown.size(); ++u)
        out.checks.expect(noRecordUnderThreshold(in.qs.unknown[u], all),
                          "reject " + std::to_string(u) +
                              " has no record under threshold");

    // After the SIGTERM drain, the snapshot and journal pcaused left
    // hold every acknowledged add, with the characterized fingerprint.
    {
        AttackService::DurabilityConfig dur;
        dur.dbPath = db;
        dur.walPath = wal;
        dur.createIfMissing = false;
        auto reopened = AttackService::openDurable(dur);
        out.checks.expect(static_cast<bool>(reopened),
                          "reopen drained state: " + reopened.error);
        if (reopened) {
            const SparseFingerprintArena &fps =
                reopened->store()->sparseFingerprints();
            out.checks.expect(reopened->size() == records + journalEntries +
                                                      adder.addedRecord.size(),
                              "drained state holds base + journal + acked");
            std::size_t lost = 0;
            for (std::size_t a = 0; a < adder.addedRecord.size(); ++a) {
                const std::size_t rec = adder.addedRecord[a];
                const std::size_t k = adder.addedChip[a];
                BitVec expect = in.addObservations[k][0];
                for (std::size_t s = 1; s < addStrings; ++s)
                    expect &= in.addObservations[k][s];
                const std::vector<std::size_t> want = expect.setBits();
                if (rec >= reopened->size() ||
                    reopened->label(rec) != "added-" + std::to_string(k)) {
                    ++lost;
                    continue;
                }
                const SparseView v = fps.view(rec);
                lost += !std::equal(want.begin(), want.end(), v.positions,
                                    v.positions + v.count,
                                    [](std::size_t w, std::uint32_t p) {
                                        return w == p;
                                    });
            }
            out.checks.expect(lost == 0, "every acked add survives the "
                                         "drain (" +
                                             std::to_string(lost) +
                                             " missing)");
        }
    }

    return out;
}

} // namespace perfbench
