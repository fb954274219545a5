/**
 * @file
 * Image workload example: the paper's motivating scenario.
 *
 * A user runs gradient edge detection (the CImg-style benchmark of
 * Section 7.6) with the output buffer in approximate memory, saves
 * the result, and posts it anonymously. This example renders the
 * whole round trip — input scene, exact output, degraded output,
 * error map — as PGM files, and then shows the attacker's view:
 * recomputing the exact output from the public input and
 * attributing the degraded image to its chip.
 *
 * Run from the repository root:
 *   ./build/examples/image_pipeline [output_dir]
 */

#include <cstdio>
#include <string>

#include "core/attacker.hh"
#include "image/edge_detect.hh"
#include "image/filters.hh"
#include "image/pgm.hh"
#include "image/test_pattern.hh"
#include "platform/platform.hh"

using namespace pcause;

int
main(int argc, char **argv)
{
    const std::string out_dir = argc > 1 ? argv[1] : ".";

    // --- The victim's machine and its interception ---------------
    Platform platform = Platform::legacy(4);
    SupplyChainAttacker attacker;
    for (unsigned c = 0; c < platform.numChips(); ++c) {
        TestHarness h = platform.harness(c);
        attacker.interceptChip(h, "machine-" + std::to_string(c));
    }
    std::printf("attacker pre-characterized %zu machines\n\n",
                attacker.store().size());

    // --- The victim's workload ----------------------------------
    const unsigned victim = 2;
    TestHarness h = platform.harness(victim);
    const Image input = makeTestImage(TestScene::Landscape, 200, 154,
                                      7);
    const Image exact_output = edgeDetect(input);

    // Store the output in approximate memory and let it decay for
    // one (slowed) refresh interval.
    BitVec buffer(h.chip().size());
    buffer.blit(0, exact_output.toBits());
    TrialSpec spec;
    spec.accuracy = 0.95;
    spec.temp = 45.0;
    spec.trialKey = 2025;
    const BitVec published_bits = h.runTrial(buffer, spec).approx;
    const Image published = Image::fromBits(
        published_bits.slice(0, exact_output.bitSize()),
        exact_output.width(), exact_output.height());

    writePgm(input, out_dir + "/pipeline_input.pgm");
    writePgm(exact_output, out_dir + "/pipeline_exact.pgm");
    writePgm(published, out_dir + "/pipeline_published.pgm");
    writePgm(absDiff(published, exact_output),
             out_dir + "/pipeline_errors.pgm");
    std::printf("victim posted pipeline_published.pgm "
                "(%zu corrupted pixels of %zu)\n",
                published.differingPixels(exact_output),
                published.pixelCount());

    // --- The attacker's view ------------------------------------
    // The input scene is public, so the exact output is
    // recomputable; the error pattern betrays the machine. Real
    // data charges only some cells, so attribution masks each
    // fingerprint down to the chargeable cells.
    const IdentifyResult r = attacker.attributeWithData(
        published_bits, buffer, h.chip().config());
    if (r.match) {
        std::printf("\nattribution: image came from %s "
                    "(distance %.5f)\n",
                    attacker.label(*r.match).c_str(),
                    r.bestDistance);
    } else {
        std::printf("\nattribution failed (nearest %.5f)\n",
                    r.bestDistance);
    }
    std::printf("ground truth: machine-%u\n", victim);
    std::printf("\nPGM artifacts written under %s/\n",
                out_dir.c_str());
    return 0;
}
