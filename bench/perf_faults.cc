/**
 * @file
 * Crash-recovery gate: kill -9 the durable service at every
 * registered store/WAL/service failpoint while it ingests and
 * queries, restart, and prove nothing acknowledged was lost.
 *
 * The parent seeds a 10k-record snapshot, then runs rounds of a
 * forked+exec'd child (fork alone is unsafe here — the thread pool
 * must be rebuilt). Each child opens the database durably
 * (replaying whatever the previous crash left), streams adds with
 * fingerprints that are a pure function of (seed, index), runs
 * interleaved identify queries, and reports every acknowledged add
 * on a pipe — with one failpoint armed to crash at a randomized hit
 * within the round. The parent accumulates the acked set across all
 * crashes, then performs the final recovery itself and enforces:
 *
 *   - zero lost acked adds: every index a child reported ACKed is
 *     present in the recovered store, with the exact label,
 *     fingerprint bits, and source count it was written with;
 *   - zero divergence: identify verdicts from the recovered store
 *     are bit-identical (accept/reject, label, f64 distance) to a
 *     reference store built in-process that never crashed;
 *   - bounded recovery: the final crash-recovery open completes
 *     within recoveryBudgetMs at the 10k-record tier.
 *
 * Emits BENCH_faults.json (fields in docs/TESTING.md); exits
 * nonzero on any gate violation.
 */

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/serialize.hh"
#include "core/service.hh"
#include "serve/loadgen.hh"
#include "util/failpoint.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace pcause;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t patternSeed = 0x70657266666c74ull;
constexpr unsigned chaosSources = 2;
constexpr double recoveryBudgetMs = 2000.0;
constexpr std::size_t checkpointEvery = 16;

// The default 50 adds per round is deliberately not a multiple of
// checkpointEvery, so even a surviving round leaves journal entries
// for the next round's replay-path failpoints to hit.

/** Upper bound for the randomized crash skip: roughly how many
 *  times @p point fires in one round, so the crash lands inside the
 *  round instead of past it. */
std::size_t
skipBound(const std::string &point, std::size_t adds)
{
    if (point == "service.query")
        return std::max<std::size_t>(1, adds / 8);
    if (point.rfind("store.save.", 0) == 0)
        return std::max<std::size_t>(1, adds / checkpointEvery);
    if (point == "wal.replay")
        return 1; // fires once per journal replay at open
    if (point == "store.load")
        return 1; // fires once per snapshot open
    return adds;  // per-add points: wal.*, service.add
}

/** Failpoints a child arms for its crash, covering ingest, query,
 *  checkpoint, and even recovery itself (crash-during-recovery must
 *  also recover). */
const char *const crashPoints[] = {
    "wal.append",      "wal.append.torn", "wal.fsync",
    "service.add",     "service.query",   "store.save.write",
    "store.save.fsync", "store.save.rename", "wal.replay",
    "store.load",
};

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

std::string
arg(int argc, char **argv, const char *key, const char *fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], key) == 0)
            return argv[i + 1];
    return fallback;
}

Fingerprint
chaosFingerprint(std::size_t index)
{
    return Fingerprint(serve::ingestPattern(patternSeed, index),
                       chaosSources);
}

/**
 * Child: open durably (recovering the last crash), then ingest
 * @p adds records with one failpoint armed to crash. Protocol on
 * stdout, one line each, flushed before the next risky operation:
 * "SIZE n" after recovery, "ACK k" after add k is acknowledged,
 * "DONE" if the round survives.
 */
int
runChild(const std::string &dir, std::size_t base, std::size_t adds,
         const std::string &point, std::size_t skip,
         std::uint64_t round_seed)
{
    failpoint::arm(point, failpoint::Action::Crash, 0, skip);

    AttackService::DurabilityConfig dur;
    dur.dbPath = dir + "/chaos.pcdb";
    dur.walPath = dir + "/chaos.pcdb.wal";
    dur.checkpointEvery = checkpointEvery; // compaction mid-round
    LoadResult<AttackService> svc = AttackService::openDurable(dur);
    if (!svc) {
        std::printf("OPENFAIL %s\n", svc.error.c_str());
        return 4;
    }
    svc->setThreadPool(&ThreadPool::global());
    std::printf("SIZE %zu\n", svc->size());
    std::fflush(stdout);

    Rng rng(mix64(round_seed, svc->size()));
    for (std::size_t j = 0; j < adds; ++j) {
        const std::size_t k = svc->size() - base;
        const AttackService::AddOutcome out = svc->addRecord(
            "chaos-" + std::to_string(k), chaosFingerprint(k));
        if (out.added) {
            std::printf("ACK %zu\n", k);
            std::fflush(stdout);
        }
        // Interleave identify load so query-path failpoints
        // (service.query) crash a busy service, not an idle one.
        if (j % 8 == 3 && svc->size() > 0) {
            IdentifyRequest req;
            req.errorString =
                svc->store()->fingerprint(rng.nextBelow(svc->size())).bits();
            (void)svc->identify(req);
        }
    }
    std::printf("DONE\n");
    return 0;
}

struct RoundOutcome
{
    std::string point;
    std::size_t acked = 0;
    bool crashed = false;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::string dir = arg(argc, argv, "--dir", "perf_faults_work");
    if (arg(argc, argv, "--child", "") == "yes") {
        return runChild(
            dir,
            static_cast<std::size_t>(
                std::atol(arg(argc, argv, "--base", "0").c_str())),
            static_cast<std::size_t>(
                std::atol(arg(argc, argv, "--adds", "50").c_str())),
            arg(argc, argv, "--point", "wal.append"),
            static_cast<std::size_t>(
                std::atol(arg(argc, argv, "--skip", "0").c_str())),
            static_cast<std::uint64_t>(
                std::atol(arg(argc, argv, "--seed", "1").c_str())));
    }

    const auto records = static_cast<std::size_t>(
        std::atol(arg(argc, argv, "--records", "10000").c_str()));
    const auto adds = static_cast<std::size_t>(
        std::atol(arg(argc, argv, "--adds", "50").c_str()));
    const std::string json_path =
        arg(argc, argv, "--json", "BENCH_faults.json");
    const std::string db_path = dir + "/chaos.pcdb";
    const std::string wal_path = db_path + ".wal";

    ::mkdir(dir.c_str(), 0755);
    std::remove(db_path.c_str());
    std::remove(wal_path.c_str());

    // Fresh base snapshot (the 10k-record tier of the acceptance
    // gate).
    serve::PopulationParams prm;
    prm.records = records;
    {
        const FingerprintStore base = serve::buildPopulation(prm);
        if (!saveStore(base, db_path)) {
            std::fprintf(stderr, "cannot write %s\n",
                         db_path.c_str());
            return 1;
        }
    }

    // Resolve our own binary for exec (argv[0] may be PATH-relative).
    char self[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    const std::string exe =
        n > 0 ? std::string(self, static_cast<std::size_t>(n))
              : std::string(argv[0]);

    constexpr std::size_t numPoints =
        sizeof(crashPoints) / sizeof(crashPoints[0]);
    std::set<std::size_t> acked;
    std::vector<RoundOutcome> rounds;
    Rng rng(0xFA17);
    bool ok = true;

    for (std::size_t r = 0; r < numPoints; ++r) {
        const std::string point = crashPoints[r % numPoints];
        const std::size_t skip =
            rng.nextBelow(skipBound(point, adds));

        int pipefd[2];
        if (::pipe(pipefd) != 0) {
            std::perror("pipe");
            return 1;
        }
        const pid_t pid = ::fork();
        if (pid < 0) {
            std::perror("fork");
            return 1;
        }
        if (pid == 0) {
            // Child: stdout -> pipe, exec a fresh process (inherited
            // thread-pool threads do not survive fork).
            ::dup2(pipefd[1], 1);
            ::close(pipefd[0]);
            ::close(pipefd[1]);
            const std::string skipStr = std::to_string(skip);
            const std::string baseStr = std::to_string(records);
            const std::string addsStr = std::to_string(adds);
            const std::string seedStr = std::to_string(r + 1);
            ::execl(exe.c_str(), exe.c_str(), "--child", "yes",
                    "--dir", dir.c_str(), "--point", point.c_str(),
                    "--skip", skipStr.c_str(), "--base",
                    baseStr.c_str(), "--adds", addsStr.c_str(),
                    "--seed", seedStr.c_str(),
                    static_cast<char *>(nullptr));
            std::perror("execl");
            std::_Exit(127);
        }
        ::close(pipefd[1]);

        RoundOutcome round;
        round.point = point;
        std::string output;
        {
            char buf[4096];
            ssize_t got;
            while ((got = ::read(pipefd[0], buf, sizeof(buf))) > 0)
                output.append(buf, static_cast<std::size_t>(got));
        }
        ::close(pipefd[0]);
        int status = 0;
        ::waitpid(pid, &status, 0);
        round.crashed = WIFEXITED(status) != 0 &&
                        WEXITSTATUS(status) == 137;

        std::size_t pos = 0;
        while (pos < output.size()) {
            std::size_t eol = output.find('\n', pos);
            if (eol == std::string::npos)
                break; // torn line: the crash beat the flush
            const std::string line = output.substr(pos, eol - pos);
            pos = eol + 1;
            if (line.rfind("ACK ", 0) == 0) {
                acked.insert(static_cast<std::size_t>(
                    std::atol(line.c_str() + 4)));
                ++round.acked;
            } else if (line.rfind("OPENFAIL", 0) == 0) {
                std::printf("FAIL: round %zu (%s): recovery "
                            "refused: %s\n",
                            r, point.c_str(), line.c_str());
                ok = false;
            }
        }
        const bool clean = WIFEXITED(status) != 0 &&
                           WEXITSTATUS(status) == 0;
        if (!round.crashed && !clean) {
            std::printf("FAIL: round %zu (%s): child exited "
                        "abnormally (status %d)\n",
                        r, point.c_str(), status);
            ok = false;
        }
        std::printf("round %-2zu %-18s skip %-3zu %s, %zu acked "
                    "(total %zu)\n",
                    r, point.c_str(), skip,
                    round.crashed ? "crashed" : "survived",
                    round.acked, acked.size());
        rounds.push_back(round);
    }

    // Final recovery, timed — this is the acceptance gate's
    // "bounded recovery time" number.
    const Clock::time_point t0 = Clock::now();
    AttackService::DurabilityConfig dur;
    dur.dbPath = db_path;
    dur.walPath = wal_path;
    LoadResult<AttackService> svc = AttackService::openDurable(dur);
    const double recoveryMs = msSince(t0);
    if (!svc) {
        std::printf("FAIL: final recovery refused: %s\n",
                    svc.error.c_str());
        return 1;
    }
    const FingerprintStore &store = *svc->store();

    // Gate 1: zero lost acked adds, bit-exact content.
    std::size_t lost = 0;
    const std::size_t chaosRecords = store.size() - records;
    for (const std::size_t k : acked) {
        if (k >= chaosRecords) {
            ++lost;
            continue;
        }
        const std::size_t i = records + k;
        if (store.label(i) != "chaos-" + std::to_string(k) ||
            !(store.fingerprint(i).bits() == chaosFingerprint(k).bits()) ||
            store.sources(i) != chaosSources)
            ++lost;
    }
    if (lost > 0) {
        std::printf("FAIL: %zu of %zu acked adds lost or damaged\n",
                    lost, acked.size());
        ok = false;
    }

    // Every recovered chaos record must be one the harness wrote —
    // recovery may keep durable-but-unacked tails, never invent.
    std::size_t invented = 0;
    for (std::size_t k = 0; k < chaosRecords; ++k) {
        const std::size_t i = records + k;
        if (store.label(i) != "chaos-" + std::to_string(k) ||
            !(store.fingerprint(i).bits() == chaosFingerprint(k).bits()))
            ++invented;
    }
    if (invented > 0) {
        std::printf("FAIL: %zu recovered records do not match any "
                    "written add\n", invented);
        ok = false;
    }

    // Gate 2: verdict equivalence against a never-crashed store.
    FingerprintStore reference = serve::buildPopulation(prm);
    for (std::size_t k = 0; k < chaosRecords; ++k)
        reference.add("chaos-" + std::to_string(k),
                      chaosFingerprint(k));
    const std::vector<BitVec> queries =
        serve::buildQueries(reference, 512, 0xFA17C0DE);
    const QueryOptions options;
    const std::vector<IdentifyVerdict> expect =
        serve::directVerdicts(reference, queries, options);
    const std::vector<IdentifyVerdict> got =
        serve::directVerdicts(store, queries, options);
    std::size_t divergences = 0;
    for (std::size_t i = 0; i < queries.size(); ++i)
        if (serve::verdictsDiverge(got[i], expect[i]))
            ++divergences;
    if (divergences > 0) {
        std::printf("FAIL: %zu verdict divergences vs the "
                    "never-crashed store\n", divergences);
        ok = false;
    }

    // Gate 3: bounded recovery.
    if (recoveryMs > recoveryBudgetMs) {
        std::printf("FAIL: recovery took %.1f ms (budget %.0f)\n",
                    recoveryMs, recoveryBudgetMs);
        ok = false;
    }

    std::size_t crashedRounds = 0;
    for (const RoundOutcome &r : rounds)
        crashedRounds += r.crashed ? 1 : 0;
    std::printf("%zu rounds (%zu crashed), %zu acked adds, %zu "
                "recovered records, recovery %.1f ms: %s\n",
                rounds.size(), crashedRounds, acked.size(),
                store.size(), recoveryMs, ok ? "PASS" : "FAIL");

    std::ofstream json(json_path);
    json << "{\n"
         << "  \"records_base\": " << records << ",\n"
         << "  \"adds_per_round\": " << adds << ",\n"
         << "  \"rounds\": [\n";
    for (std::size_t i = 0; i < rounds.size(); ++i)
        json << "    {\"point\": \"" << rounds[i].point
             << "\", \"crashed\": "
             << (rounds[i].crashed ? "true" : "false")
             << ", \"acked\": " << rounds[i].acked << "}"
             << (i + 1 < rounds.size() ? "," : "") << "\n";
    json << "  ],\n"
         << "  \"acked_total\": " << acked.size() << ",\n"
         << "  \"recovered_records\": " << store.size() << ",\n"
         << "  \"lost_acked\": " << lost << ",\n"
         << "  \"divergences\": " << divergences << ",\n"
         << "  \"recovery_ms\": " << recoveryMs << ",\n"
         << "  \"recovery_budget_ms\": " << recoveryBudgetMs << ",\n"
         << "  \"pass\": " << (ok ? "true" : "false") << "\n"
         << "}\n";
    std::printf("%s written\n", json_path.c_str());
    return ok ? 0 : 1;
}
