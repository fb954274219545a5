/**
 * @file
 * Shared pieces of the end-to-end benchmark: run options, metric
 * reporting, the span tracer, input synthesis, the benchmark's own
 * Algorithm 3, and the pcaused child process.
 *
 * Everything here calls the program only through its public,
 * non-deprecated entry points (AttackService, FingerprintStore,
 * MappedStore, core/minhash, the sparse bounded kernel,
 * IndexedClusterer, Wal, serve/protocol, serve/client).
 */

#ifndef PCAUSE_PERFBENCH_BENCH_HH
#define PCAUSE_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <sys/types.h>

#include "core/fingerprint.hh"
#include "core/identify.hh"
#include "util/bitvec.hh"
#include "util/rng.hh"

namespace perfbench
{

using pcause::BitVec;
using pcause::Rng;

/** Input geometry shared by every workload (bench populations). */
constexpr std::size_t universeBits = 8192;
constexpr std::size_t fingerprintWeight = 256; //!< draws, with replacement
constexpr std::size_t noiseBits = 64;          //!< extra bits per query
constexpr std::size_t knownPerUnknown = 15;    //!< the 15:1 mix
constexpr double matchThreshold = 0.1;

/**
 * Size of the benchmark's own worker pool (store builds, batch
 * identification): 1, which runs the pool's tasks inline. On a host
 * shared with other tenants, multi-threaded phases moved by 30% from
 * run to run while single-threaded ones held within ~10%.
 */
constexpr std::size_t benchThreads = 1;

/** One measured phase of a run and its share of the run's time. */
struct Phase
{
    double share;
    std::function<void(double seconds)> run;
};

/**
 * Run every phase for its share of @p seconds, split into @p cycles
 * slices taken in turn, so that each phase is sampled across the
 * whole run and a slow spell of the host touches all phases alike.
 */
void interleave(double seconds, std::size_t cycles,
                const std::vector<Phase> &phases);

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workdir;   //!< scratch files of this run
    std::string traceFile; //!< span output (trace runs)
    std::string commit = "unknown";
    std::string dirty = "unknown";
};

/** Monotonic seconds. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Monotonic nanoseconds (span timestamps). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Percentile @p q in [0,1] by nearest rank (copies and sorts). */
double percentile(std::vector<double> v, double q);

/** Mean of v[first..]; NaN when that is empty. */
double mean(const std::vector<double> &v, std::size_t first = 0);

/** Median (percentile 0.5). */
inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/** Named metrics of one run (printed sorted by name). */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    /** `{"name": {"value": v, "unit": "u"}, ...}` */
    std::string json() const;

  private:
    std::map<std::string, std::pair<double, std::string>> values;
};

/** Attempted/failed counts per operation class. */
class OpCounts
{
  public:
    void add(const std::string &op, std::uint64_t attempted,
             std::uint64_t failed);
    std::uint64_t attempted() const;
    std::uint64_t failed() const;
    std::string json() const;

  private:
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> ops;
};

/** Correctness bookkeeping: every failed check is kept as a line. */
class Checks
{
  public:
    /** Record check @p name; a false @p ok fails the run. */
    void expect(bool ok, const std::string &name);
    bool allPassed() const { return failures.empty(); }
    std::size_t count() const { return total; }
    const std::vector<std::string> &failed() const { return failures; }

  private:
    std::size_t total = 0;
    std::vector<std::string> failures;
};

// --- Tracing ----------------------------------------------------------

/** One span: a call into a layer, timed from the benchmark. */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint32_t id = 0;     //!< 1-based within its log
    std::uint32_t parent = 0; //!< 0 = root
    std::uint64_t request = 0;
};

/** Spans of one thread, kept in memory until the run ends. */
class SpanLog
{
  public:
    std::uint32_t open(const char *name, std::uint32_t parent,
                       std::uint64_t request);
    void close(std::uint32_t id);
    const std::vector<Span> &spans() const { return log; }

    /** Durations (µs) of every closed span named @p name. */
    std::vector<double> durationsUs(const char *name) const;

  private:
    std::vector<Span> log;
};

/**
 * RAII span; a null log makes it a no-op, which is how untraced
 * runs pay nothing for the instrumentation.
 */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const char *name, std::uint32_t parent = 0,
              std::uint64_t request = 0)
        : spanLog(log),
          spanId(log ? log->open(name, parent, request) : 0)
    {}
    ~SpanScope() { end(); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Close early (idempotent). */
    void end()
    {
        if (spanLog && spanId) {
            spanLog->close(spanId);
            spanId = 0;
        }
    }
    std::uint32_t id() const { return spanId; }

  private:
    SpanLog *spanLog;
    std::uint32_t spanId;
};

/** Write every span of @p logs (one per thread) as JSON lines. */
bool writeSpans(const std::string &path, const std::vector<SpanLog> &logs);

// --- Inputs -------------------------------------------------------------

/** A random chip fingerprint pattern (weight draws with replacement). */
BitVec randomPattern(Rng &rng);

/** A noisy observation of @p fp: every bit plus noiseBits extras. */
BitVec noisyObservation(Rng &rng, const BitVec &fp);

/** A lossy observation of @p fp: every 50th of its bits missing (at
 *  least one), plus up to noiseBits extras outside @p fp, so its
 *  distance from its chip is ~0.02 and never 0. */
BitVec lossyObservation(Rng &rng, const BitVec &fp);

/** Chip label of population record @p i. */
std::string chipLabel(std::size_t i);

/** A synthetic attacker database: labels + fingerprints. */
struct Population
{
    std::vector<std::string> labels;
    std::vector<pcause::Fingerprint> fps;
};
Population makePopulation(Rng &rng, std::size_t n);

/** Known/unknown identify queries against a population. */
struct QuerySet
{
    std::vector<BitVec> known;
    std::vector<std::size_t> knownRecord; //!< generating record
    std::vector<BitVec> unknown;
};
QuerySet makeQueries(Rng &rng, const Population &pop,
                     std::size_t known, std::size_t unknown);

// --- Independent checks ----------------------------------------------------

/**
 * Algorithm 3 from plain popcounts: the lower-weight operand plays
 * the fingerprint, d = |fp| - |fp ∩ es|, distance = d / |fp| in one
 * integer division, so it matches the program bit for bit.
 */
double referenceDistance(const BitVec &a, const BitVec &b);

/** The benchmark's own linear scan: true when no fingerprint of
 *  @p pop is under the threshold against @p es. */
bool noRecordUnderThreshold(const BitVec &es,
                            const std::vector<const BitVec *> &fps);

/** Purity and adjusted Rand index of a partition vs ground truth. */
struct PartitionScore
{
    double purity = 0;
    double ari = 0;
    std::size_t clusters = 0;
    std::size_t classes = 0;
};
PartitionScore scorePartition(const std::vector<std::size_t> &assigned,
                              const std::vector<std::size_t> &truth);

// --- Process ----------------------------------------------------------------

/** Peak resident set (VmHWM) of @p pid (0 = self), MiB. */
double peakRssMb(pid_t pid = 0);

/** A pcaused child process. */
class Pcaused
{
  public:
    Pcaused() = default;
    ~Pcaused();
    Pcaused(const Pcaused &) = delete;
    Pcaused &operator=(const Pcaused &) = delete;

    /**
     * Spawn pcaused with @p args (after the binary) and wait until
     * Health reports "serving". Returns seconds from spawn to
     * serving, or a negative value on failure (reason in error()).
     */
    double start(const std::vector<std::string> &args,
                 const std::string &workdir);

    /** SIGTERM (graceful drain) and wait; returns the exit code. */
    int stop();

    pid_t pid() const { return child; }
    std::uint16_t port() const { return boundPort; }
    const std::string &error() const { return why; }

  private:
    pid_t child = -1;
    std::uint16_t boundPort = 0;
    std::string why;
};

/** Directory of the running executable (pcaused sits beside it). */
std::string selfDir();

/** Size of @p path in bytes (0 when missing). */
std::uintmax_t fileBytes(const std::string &path);

// --- Run protocol ---------------------------------------------------------

/** Outcome of one workload run. */
struct RunResult
{
    Metrics metrics;
    OpCounts ops;
    Checks checks;
    std::vector<SpanLog> spans; //!< trace runs, one log per thread
};

/** Print provenance + ops + result lines (result last). */
void report(const Options &opt, const RunResult &r);

// --- Layers (trace runs) --------------------------------------------------

/**
 * Inputs the per-layer sweep replays: the workload's own database
 * and queries, a v3 snapshot of the same records, and a stream for
 * the clusterer (fresh chips to add come from the run's seed).
 */
struct LayerInputs
{
    const Population *population = nullptr;
    const QuerySet *queries = nullptr;
    std::string snapshotPath; //!< v3 file of population
    std::vector<BitVec> stream; //!< outputs to cluster
    std::vector<std::size_t> streamChip; //!< generating chip per output
    std::uint16_t port = 0; //!< a serving pcaused, or 0 to spawn one
};

/**
 * Measure every per-layer metric on @p in, recording each timed
 * call as a span in @p log. serve_mixed overwrites the open-loop
 * figures (send lag, BUSY replies, checkpoints) with its own.
 */
void layerSweep(const Options &opt, const LayerInputs &in,
                RunResult &out, SpanLog &log);

/**
 * A small core/campaign stream (500 chips, 10k outputs) for the
 * cluster layer of workloads that have no stream of their own.
 */
void smallCampaign(std::uint64_t seed, std::vector<BitVec> &stream,
                   std::vector<std::size_t> &chip);

/** Workload entry points. */
RunResult runServeMixed(const Options &opt);
RunResult runRejectScan(const Options &opt);
RunResult runCampaignCluster(const Options &opt);

} // namespace perfbench

#endif // PCAUSE_PERFBENCH_BENCH_HH
