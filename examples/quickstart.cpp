/**
 * @file
 * Quickstart: simulate a small tiled CMP running a mix of
 * SPEC-CPU2006-like applications under S-NUCA and CDCS, and print the
 * headline numbers. This is the smallest end-to-end use of the
 * library: build a SystemConfig (optionally overridden from the
 * command line), pick schemes from the SchemeRegistry by name, run,
 * inspect RunResult.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/example_quickstart
 *   ./build/example_quickstart meshWidth=8 meshHeight=8 epochs=12
 */

#include <cstdio>

#include "sim/experiment_runner.hh"
#include "sim/overrides.hh"
#include "sim/scheme_registry.hh"

int
main(int argc, char **argv)
{
    using namespace cdcs;

    // A 4x4-tile CMP with 512 KB LLC banks (an 8 MB NUCA LLC).
    SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.accessesPerThreadEpoch = 20000;
    cfg.epochs = 8;
    cfg.warmupEpochs = 4;

    // Any key=value argument overrides the config, with the same
    // typed parser behind `cdcs_studies --set`.
    Overrides overrides;
    std::string err;
    for (int i = 1; i < argc; i++) {
        if (!overrides.add(argv[i], &err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 1;
        }
    }
    overrides.apply(cfg);

    // Eight random SPEC-CPU2006-like applications.
    const MixSpec mix = MixSpec::cpu(8, /*seed=*/123);

    std::printf("running %d apps on a %dx%d CMP under S-NUCA and "
                "CDCS...\n\n",
                mix.count, cfg.meshWidth, cfg.meshHeight);

    // Both schemes run concurrently on the experiment engine's
    // work-stealing pool (Options::workers = 1 forces serial). The lineup
    // comes from the SchemeRegistry — the same names study specs use.
    ExperimentRunner runner;
    const auto results = runner.runSchemes(
        cfg, schemesByName({"snuca", "cdcs"}), mix);
    const RunResult &snuca = results[0];
    const RunResult &cdcs_r = results[1];

    std::printf("%-22s %12s %12s\n", "", "S-NUCA", "CDCS");
    std::printf("%-22s %12.3f %12.3f\n", "LLC hit ratio",
                static_cast<double>(snuca.llcHits) / snuca.llcAccesses,
                static_cast<double>(cdcs_r.llcHits) /
                    cdcs_r.llcAccesses);
    std::printf("%-22s %12.1f %12.1f\n", "on-chip cycles/access",
                snuca.avgOnChipLatency(), cdcs_r.avgOnChipLatency());
    std::printf("%-22s %12.2f %12.2f\n", "energy (nJ/instr)",
                1e9 * snuca.energy.total() / snuca.totalInstrs,
                1e9 * cdcs_r.energy.total() / cdcs_r.totalInstrs);
    std::printf("%-22s %12s %12.3f\n", "weighted speedup", "1.000",
                weightedSpeedup(cdcs_r, snuca));

    std::printf("\nCDCS reconfigured %d times; average runtime "
                "%.0f us per reconfiguration\n",
                cdcs_r.reconfigs, cdcs_r.avgTimes.totalUs());
    return 0;
}
