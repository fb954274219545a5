#include "bench.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/client.hh"
#include "util/simd.hh"

extern char **environ;

namespace perfbench
{

namespace
{

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // anonymous namespace

void
interleave(double seconds, std::size_t cycles,
           const std::vector<Phase> &phases)
{
    for (std::size_t c = 0; c < cycles; ++c)
        for (const Phase &p : phases)
            p.run(seconds * p.share / static_cast<double>(cycles));
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    if (idx >= v.size())
        idx = v.size() - 1;
    return v[idx];
}

double
mean(const std::vector<double> &v, std::size_t first)
{
    if (first >= v.size())
        return std::nan("");
    double sum = 0;
    for (std::size_t i = first; i < v.size(); ++i)
        sum += v[i];
    return sum / static_cast<double>(v.size() - first);
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    values[name] = {value, unit};
}

std::string
Metrics::json() const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, vu] : values) {
        if (!first)
            out += ", ";
        first = false;
        out += jsonString(name) + ": {\"value\": " + jsonNumber(vu.first) +
               ", \"unit\": " + jsonString(vu.second) + "}";
    }
    return out + "}";
}

void
OpCounts::add(const std::string &op, std::uint64_t attempted,
              std::uint64_t failed)
{
    ops[op].first += attempted;
    ops[op].second += failed;
}

std::uint64_t
OpCounts::attempted() const
{
    std::uint64_t n = 0;
    for (const auto &[op, af] : ops)
        n += af.first;
    return n;
}

std::uint64_t
OpCounts::failed() const
{
    std::uint64_t n = 0;
    for (const auto &[op, af] : ops)
        n += af.second;
    return n;
}

std::string
OpCounts::json() const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[op, af] : ops) {
        if (!first)
            out += ", ";
        first = false;
        out += jsonString(op) + ": {\"attempted\": " +
               std::to_string(af.first) +
               ", \"failed\": " + std::to_string(af.second) + "}";
    }
    return out + "}";
}

void
Checks::expect(bool ok, const std::string &name)
{
    ++total;
    if (!ok)
        failures.push_back(name);
}

std::uint32_t
SpanLog::open(const char *name, std::uint32_t parent,
              std::uint64_t request)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.id = static_cast<std::uint32_t>(log.size() + 1);
    s.startNs = nowNs();
    log.push_back(s);
    return s.id;
}

void
SpanLog::close(std::uint32_t id)
{
    log[id - 1].endNs = nowNs();
}

std::vector<double>
SpanLog::durationsUs(const char *name) const
{
    std::vector<double> out;
    for (const Span &s : log)
        if (s.endNs != 0 && std::strcmp(s.name, name) == 0)
            out.push_back(static_cast<double>(s.endNs - s.startNs) / 1e3);
    return out;
}

bool
writeSpans(const std::string &path, const std::vector<SpanLog> &logs)
{
    std::ofstream out(path);
    for (std::size_t t = 0; t < logs.size(); ++t) {
        for (const Span &s : logs[t].spans()) {
            out << "{\"thread\": " << t << ", \"id\": " << s.id
                << ", \"parent\": " << s.parent << ", \"name\": \""
                << s.name << "\", \"request\": " << s.request
                << ", \"start_ns\": " << s.startNs
                << ", \"end_ns\": " << s.endNs << "}\n";
        }
    }
    return static_cast<bool>(out);
}

BitVec
randomPattern(Rng &rng)
{
    BitVec bits(universeBits);
    for (std::size_t i = 0; i < fingerprintWeight; ++i)
        bits.set(rng.nextBelow(universeBits));
    return bits;
}

BitVec
noisyObservation(Rng &rng, const BitVec &fp)
{
    BitVec es = fp;
    for (std::size_t i = 0; i < noiseBits; ++i)
        es.set(rng.nextBelow(universeBits));
    return es;
}

BitVec
lossyObservation(Rng &rng, const BitVec &fp)
{
    BitVec es(fp.size());
    std::size_t k = 0;
    for (std::size_t pos : fp.setBits())
        if (k++ % 50 != 0)
            es.set(pos);
    for (std::size_t i = 0; i < noiseBits; ++i) {
        const std::size_t pos = rng.nextBelow(universeBits);
        if (!fp.get(pos))
            es.set(pos);
    }
    return es;
}

std::string
chipLabel(std::size_t i)
{
    return "chip-" + std::to_string(i);
}

Population
makePopulation(Rng &rng, std::size_t n)
{
    Population pop;
    pop.labels.reserve(n);
    pop.fps.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        pop.labels.push_back(chipLabel(i));
        pop.fps.emplace_back(randomPattern(rng), 3u);
    }
    return pop;
}

QuerySet
makeQueries(Rng &rng, const Population &pop, std::size_t known,
            std::size_t unknown)
{
    QuerySet qs;
    qs.known.reserve(known);
    for (std::size_t q = 0; q < known; ++q) {
        const std::size_t rec = rng.nextBelow(pop.fps.size());
        qs.known.push_back(noisyObservation(rng, pop.fps[rec].bits()));
        qs.knownRecord.push_back(rec);
    }
    // An unknown chip is a fresh random pattern: at weight 256 in an
    // 8192-bit universe it shares ~3% of its cells with any record,
    // far above the 0.1 threshold.
    for (std::size_t q = 0; q < unknown; ++q)
        qs.unknown.push_back(noisyObservation(rng, randomPattern(rng)));
    return qs;
}

double
referenceDistance(const BitVec &a, const BitVec &b)
{
    std::uint64_t wa = 0, wb = 0, both = 0;
    for (std::size_t w = 0; w < a.wordCount(); ++w) {
        wa += __builtin_popcountll(a.wordAt(w));
        wb += __builtin_popcountll(b.wordAt(w));
        both += __builtin_popcountll(a.wordAt(w) & b.wordAt(w));
    }
    if (wa == 0 && wb == 0)
        return 0.0;
    if (wa == 0 || wb == 0)
        return 1.0;
    const std::uint64_t fp = wa <= wb ? wa : wb;
    return static_cast<double>(fp - both) / static_cast<double>(fp);
}

bool
noRecordUnderThreshold(const BitVec &es,
                       const std::vector<const BitVec *> &fps)
{
    for (const BitVec *fp : fps)
        if (referenceDistance(es, *fp) < matchThreshold)
            return false;
    return true;
}

PartitionScore
scorePartition(const std::vector<std::size_t> &assigned,
               const std::vector<std::size_t> &truth)
{
    PartitionScore s;
    const std::size_t n = assigned.size();
    if (n == 0 || truth.size() != n)
        return s;
    std::unordered_map<std::uint64_t, std::uint64_t> joint;
    std::unordered_map<std::size_t, std::uint64_t> byCluster, byClass;
    for (std::size_t i = 0; i < n; ++i) {
        ++joint[(static_cast<std::uint64_t>(assigned[i]) << 32) | truth[i]];
        ++byCluster[assigned[i]];
        ++byClass[truth[i]];
    }
    // Purity: each cluster counts its majority class.
    std::unordered_map<std::size_t, std::uint64_t> majority;
    for (const auto &[key, c] : joint) {
        auto &m = majority[static_cast<std::size_t>(key >> 32)];
        m = std::max(m, c);
    }
    std::uint64_t pure = 0;
    for (const auto &[cl, m] : majority)
        pure += m;
    s.purity = static_cast<double>(pure) / static_cast<double>(n);

    auto pairs = [](std::uint64_t c) {
        return static_cast<double>(c) * static_cast<double>(c - 1) / 2.0;
    };
    double sumJoint = 0, sumA = 0, sumB = 0;
    for (const auto &[key, c] : joint)
        sumJoint += pairs(c);
    for (const auto &[cl, c] : byCluster)
        sumA += pairs(c);
    for (const auto &[cl, c] : byClass)
        sumB += pairs(c);
    const double total = pairs(n);
    const double expected = sumA * sumB / total;
    const double maxIndex = (sumA + sumB) / 2.0;
    s.ari = maxIndex == expected ? 1.0
                                 : (sumJoint - expected) /
                                       (maxIndex - expected);
    s.clusters = byCluster.size();
    s.classes = byClass.size();
    return s;
}

double
peakRssMb(pid_t pid)
{
    const std::string path =
        pid == 0 ? "/proc/self/status"
                 : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return std::nan("");
}

std::string
selfDir()
{
    return std::filesystem::read_symlink("/proc/self/exe")
        .parent_path()
        .string();
}

std::uintmax_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto n = std::filesystem::file_size(path, ec);
    return ec ? 0 : n;
}

Pcaused::~Pcaused()
{
    if (child > 0)
        stop();
}

double
Pcaused::start(const std::vector<std::string> &args,
               const std::string &workdir)
{
    const std::string portFile = workdir + "/pcaused.port";
    const std::string logFile = workdir + "/pcaused.log";
    std::filesystem::remove(portFile);

    std::vector<std::string> argv_s;
    argv_s.push_back(selfDir() + "/pcaused");
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    argv_s.push_back("--port-file");
    argv_s.push_back(portFile);
    std::vector<char *> argv;
    for (std::string &a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, logFile.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);

    const double t0 = now();
    const int rc = posix_spawn(&child, argv[0], &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
        child = -1;
        why = std::string("spawn pcaused: ") + std::strerror(rc);
        return -1;
    }

    // Readiness = the port file exists and Health says "serving".
    const double deadline = t0 + 120;
    while (now() < deadline) {
        int status = 0;
        if (waitpid(child, &status, WNOHANG) == child) {
            child = -1;
            why = "pcaused exited during start-up (see " + logFile + ")";
            return -1;
        }
        std::ifstream pf(portFile);
        unsigned port = 0;
        if (pf >> port && port != 0) {
            pcause::serve::Client c;
            if (c.connect(static_cast<std::uint16_t>(port)).empty()) {
                pcause::serve::RetryPolicy once;
                once.attempts = 1;
                const auto h = c.health(once);
                if (h && h->find("\"serving\"") != std::string::npos) {
                    boundPort = static_cast<std::uint16_t>(port);
                    return now() - t0;
                }
            }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    why = "pcaused did not report serving within 120 s";
    stop();
    return -1;
}

int
Pcaused::stop()
{
    if (child <= 0)
        return -1;
    ::kill(child, SIGTERM);
    int status = 0;
    while (waitpid(child, &status, 0) < 0 && errno == EINTR) {
    }
    child = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

void
report(const Options &opt, const RunResult &r)
{
    std::ostringstream prov;
    prov << "{\"workload\": " << jsonString(opt.workload)
         << ", \"seed\": " << opt.seed << ", \"seconds\": "
         << jsonNumber(opt.seconds)
         << ", \"trace\": " << (opt.trace ? "true" : "false")
         << ", \"commit\": " << jsonString(opt.commit)
         << ", \"dirty\": " << jsonString(opt.dirty)
         << ", \"cpu\": " << jsonString(cpuModel())
         << ", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"bench_threads\": " << benchThreads
         << ", \"pcaused_pool_threads\": "
         << std::thread::hardware_concurrency()
         << ", \"simd\": " << jsonString(pcause::simd::levelName(
                                 pcause::simd::activeLevel()))
         << ", \"build_type\": " << jsonString(PCB_BUILD_TYPE)
         << ", \"compiler\": " << jsonString(PCB_COMPILER) << "}";
    std::printf("provenance %s\n", prov.str().c_str());
    std::printf("ops %s\n", r.ops.json().c_str());
    std::printf("checks {\"run\": %zu, \"failed\": %zu}\n",
                r.checks.count(), r.checks.failed().size());
    for (const std::string &f : r.checks.failed())
        std::printf("check failed: %s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                r.checks.allPassed() ? "true" : "false",
                static_cast<unsigned long long>(r.ops.attempted()),
                static_cast<unsigned long long>(r.ops.failed()),
                r.metrics.json().c_str());
    std::fflush(stdout);
}

} // namespace perfbench
