#include "experiments/ablation_data_dependence.hh"

#include <sstream>

#include "core/characterize.hh"
#include "core/error_string.hh"
#include "core/identify.hh"
#include "core/store.hh"
#include "platform/platform.hh"
#include "util/ascii_chart.hh"
#include "util/stats.hh"

namespace pcause
{

DataDependenceResult
runDataDependence(const DataDependenceParams &prm)
{
    Platform platform(prm.chipConfig, prm.numChips, prm.ctx.seedBase);
    std::uint64_t trial = prm.ctx.trialSeedBase;

    // Worst-case characterization, as the supply-chain attacker
    // would perform it.
    FingerprintStore store;
    const BitVec worst = platform.chip(0).worstCasePattern();
    for (unsigned c = 0; c < prm.numChips; ++c) {
        TestHarness h = platform.harness(c);
        std::vector<BitVec> outs;
        for (unsigned k = 0; k < 3; ++k) {
            TrialSpec spec;
            spec.accuracy = 0.99;
            spec.temp = prm.temperature;
            spec.trialKey = ++trial;
            outs.push_back(h.runWorstCaseTrial(spec).approx);
        }
        store.add("chip-" + std::to_string(c),
               characterize(outs, worst));
    }

    DataDependenceResult res;
    for (WorkloadKind kind : prm.workloads) {
        DataDependenceRow row;
        row.kind = kind;

        const BitVec data = makeWorkloadBuffer(
            kind, prm.chipConfig.totalBits(), prm.ctx.seedBase);
        row.chargedFraction = chargedFraction(data, prm.chipConfig);

        RunningStats plain_within, masked_within, masked_between;
        std::size_t total = 0, correct = 0;
        for (unsigned c = 0; c < prm.numChips; ++c) {
            TestHarness h = platform.harness(c);
            TrialSpec spec;
            spec.accuracy = prm.accuracy;
            spec.temp = prm.temperature;
            spec.trialKey = ++trial;
            const BitVec approx = h.runTrial(data, spec).approx;
            const BitVec es = errorString(approx, data);
            const BitVec mask =
                maskableCells(data, prm.chipConfig);

            for (unsigned f = 0; f < prm.numChips; ++f) {
                const BitVec fp = store.fingerprint(f).bits();
                const double plain = modifiedJaccard(es, fp);
                const double masked = modifiedJaccard(es, fp & mask);
                if (f == c) {
                    plain_within.add(plain);
                    masked_within.add(masked);
                } else {
                    masked_between.add(masked);
                }
            }

            const IdentifyResult r = identifyWithData(
                approx, data, prm.chipConfig, store.sparseFingerprints());
            ++total;
            correct += r.match &&
                store.label(*r.match) == "chip-" + std::to_string(c);
        }
        row.plainWithin = plain_within.mean();
        row.maskedWithin = masked_within.mean();
        row.maskedBetween = masked_between.mean();
        row.identification = static_cast<double>(correct) / total;
        res.rows.push_back(row);
    }
    return res;
}

std::string
renderDataDependence(const DataDependenceResult &res)
{
    std::ostringstream out;
    out << "Data dependence of deanonymization (fingerprints from "
           "worst-case data)\n\n";
    TextTable table({"workload", "charged cells", "within (plain)",
                     "within (masked)", "between (masked)",
                     "identification"});
    for (const auto &row : res.rows) {
        table.addRow({workloadName(row.kind),
                      fmtDouble(100 * row.chargedFraction, 1) + "%",
                      fmtDouble(row.plainWithin, 4),
                      fmtDouble(row.maskedWithin, 4),
                      fmtDouble(row.maskedBetween, 4),
                      fmtDouble(100 * row.identification, 0) + "%"});
    }
    out << table.render() << "\n";
    out << "plain matching degrades as data hides fingerprint "
           "cells; masking the\nfingerprint to the cells the data "
           "charged restores the separation\n";
    return out.str();
}

} // namespace pcause
