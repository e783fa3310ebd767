#include "sim/platform.hh"

#include "common/log.hh"
#include "mem/mem_placement_registry.hh"
#include "mem/mem_tiering_registry.hh"
#include "monitor/gmon.hh"
#include "net/noc_registry.hh"
#include "monitor/umon.hh"
#include "nuca/rnuca.hh"
#include "nuca/snuca.hh"
#include "runtime/anneal.hh"
#include "runtime/bisect.hh"
#include "runtime/schedulers.hh"
#include "workload/mix.hh"

namespace cdcs
{

Platform::Platform(const SystemConfig &cfg, const SchemeSpec &spec,
                   const WorkloadMix &mix)
    : mesh(cfg.meshWidth, cfg.meshHeight, cfg.noc, cfg.memChannels)
{
    NocBuildParams noc_params;
    noc_params.injScale = cfg.nocInjScale;
    noc_params.maxUtil = cfg.nocMaxUtil;
    noc_params.farLinks = cfg.hasFarTier();
    noc = NocRegistry::instance().build(cfg.nocModel, mesh,
                                        noc_params);

    MemPlacementBuildParams mem_params;
    mem_params.hopCycles = static_cast<double>(
        cfg.noc.routerCycles + cfg.noc.linkCycles);
    mem_params.smoothing = cfg.monitorSmoothing;
    memPlacement = MemPlacementRegistry::instance().build(
        cfg.memPlacement, mesh, mem_params);

    if (cfg.hasFarTier()) {
        // Overrides::add validates these, but programmatic configs
        // bypass it; a bad far-tier setup must fail loudly, not
        // silently misprice the queue model.
        cdcs_assert(cfg.farMemRatio < 1.0,
                    "farMemRatio must be in [0, 1)");
        cdcs_assert(cfg.farMemChannels >= 1,
                    "farMemChannels must be at least 1");
        cdcs_assert(cfg.farMemLinesPerCycle > 0.0,
                    "farMemLinesPerCycle must be positive");
        MemTieringParams tier_params;
        tier_params.farRatio = cfg.farMemRatio;
        tier_params.smoothing = cfg.monitorSmoothing;
        tiering = MemTieringRegistry::build(cfg.memTiering, mesh,
                                            tier_params);
        memPlacement->attachTiering(tiering.get());
    }

    const int num_banks = mesh.numTiles() * cfg.banksPerTile;
    cdcs_assert(mix.numThreads() <= mesh.numTiles(),
                "mix has more threads than cores");
    // The runtime's placement cost model mirrors cfg.noc's hop timing
    // (RuntimeInput::hopCycles); the mesh the NocModel answers latency
    // queries from must agree, or placement would price a different
    // network than the access path pays.
    cdcs_assert(mesh.config().routerCycles == cfg.noc.routerCycles &&
                    mesh.config().linkCycles == cfg.noc.linkCycles,
                "mesh NoC timing diverged from SystemConfig.noc");
    // Overrides::add validates the `placementCost=` key, but configs
    // built programmatically bypass it; an unknown oracle name must
    // fail loudly here, not silently run the contention-priced arm.
    cdcs_assert(cfg.placementCost == "noc" ||
                    cfg.placementCost == "zero-load",
                "unknown placement cost oracle (expected noc or "
                "zero-load)");

    banks.reserve(num_banks);
    for (int b = 0; b < num_banks; b++) {
        banks.emplace_back(cfg.bankLines, cfg.bankWays,
                           mix64(cfg.seed ^ (0xBA2B + b)));
    }

    // Initial thread scheduling.
    std::vector<ProcId> thread_proc;
    for (ThreadId t = 0; t < mix.numThreads(); t++)
        thread_proc.push_back(mix.thread(t).proc);
    if (spec.sched == InitialSched::Random) {
        Rng sched_rng(mix64(cfg.seed ^ 0x5E5E));
        initialPlacement = randomSchedule(mix.numThreads(),
                                          mesh.numTiles(), sched_rng);
    } else {
        initialPlacement = clusteredSchedule(thread_proc,
                                             mesh.numTiles());
    }

    // Policy + runtime.
    switch (spec.kind) {
      case SchemeKind::SNuca:
        policy = std::make_unique<SNucaPolicy>(num_banks);
        break;
      case SchemeKind::RNuca:
        policy = std::make_unique<RNucaPolicy>(&mesh,
                                               cfg.banksPerTile);
        break;
      case SchemeKind::Partitioned: {
        switch (spec.placer) {
          case PlacerKind::Heuristic:
            runtime = std::make_unique<CdcsRuntime>(spec.cdcsOpts);
            break;
          case PlacerKind::Annealed:
            runtime = std::make_unique<AnnealingRuntime>(
                spec.cdcsOpts, spec.saIterations, cfg.seed ^ 0x5A5A);
            break;
          case PlacerKind::Bisection:
            runtime = std::make_unique<BisectRuntime>(spec.cdcsOpts);
            break;
        }
        std::vector<ThreadVcWiring> wiring;
        for (ThreadId t = 0; t < mix.numThreads(); t++) {
            const ThreadCtx &thr = mix.thread(t);
            wiring.push_back({thr.privateVc, thr.processVc,
                              thr.globalVc});
        }
        PartitionedNucaConfig move_cfg = cfg.moveCfg;
        move_cfg.moves = spec.moves;
        policy = std::make_unique<PartitionedNucaPolicy>(
            &mesh, cfg.banksPerTile, cfg.bankLines,
            static_cast<std::uint32_t>(cfg.bankLines / cfg.bankWays),
            std::move(wiring), mix.numVcs(), runtime.get(), move_cfg);
        break;
      }
    }

    // Monitors (partitioned schemes only).
    if (policy->wantsMonitors()) {
        for (int d = 0; d < mix.numVcs(); d++) {
            if (spec.monitor == MonitorKind::Gmon) {
                monitors.push_back(std::make_unique<Gmon>(
                    spec.monitorWays, cfg.llcLines(), spec.monitorSets,
                    spec.monitorSampleShift,
                    mix64(cfg.seed ^ (0x60D + d))));
            } else {
                monitors.push_back(std::make_unique<Umon>(
                    spec.monitorWays, cfg.llcLines(), spec.monitorSets,
                    mix64(cfg.seed ^ (0x60D + d))));
            }
        }
    }
}

} // namespace cdcs
