/**
 * @file
 * pcbench: one workload of the end-to-end benchmark per process.
 *
 *   pcbench --workload serve_mixed|reject_scan|campaign_cluster
 *           --seed N --seconds S --trace 0|1 --workdir DIR
 *           [--trace-file PATH] [--commit SHA] [--dirty yes|no]
 *
 * Prints a provenance line, per-operation attempted/failed counts,
 * the checks, and as its last line one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. run.py builds and
 * runs this binary; see README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.hh"

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "pcbench: %s\n"
                 "usage: pcbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--trace-file PATH] "
                 "[--commit SHA] [--dirty yes|no]\n",
                 why);
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            opt.workload = v;
        else if (k == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            opt.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            opt.trace = v == "1";
        else if (k == "--workdir")
            opt.workdir = v;
        else if (k == "--trace-file")
            opt.traceFile = v;
        else if (k == "--commit")
            opt.commit = v;
        else if (k == "--dirty")
            opt.dirty = v;
        else
            return usage(("unknown flag " + k).c_str());
    }
    if (argc % 2 == 0)
        return usage("flags take one value each");
    if (opt.workdir.empty() || !(opt.seconds > 0))
        return usage("--workdir and a positive --seconds are required");
    std::filesystem::create_directories(opt.workdir);

    RunResult r;
    if (opt.workload == "serve_mixed")
        r = runServeMixed(opt);
    else if (opt.workload == "reject_scan")
        r = runRejectScan(opt);
    else if (opt.workload == "campaign_cluster")
        r = runCampaignCluster(opt);
    else
        return usage(("unknown workload '" + opt.workload + "'").c_str());

    if (opt.trace && !opt.traceFile.empty()) {
        std::size_t n = 0;
        for (const SpanLog &l : r.spans)
            n += l.spans().size();
        if (writeSpans(opt.traceFile, r.spans))
            std::printf("trace: %zu spans written to %s\n", n,
                        opt.traceFile.c_str());
        else
            r.checks.expect(false, "write spans to " + opt.traceFile);
    }
    report(opt, r);
    return 0;
}
