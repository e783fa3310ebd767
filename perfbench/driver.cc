/**
 * @file
 * Host-speed benchmark driver for the CDCS simulator.
 *
 * Runs one workload through the simulator's public API and prints one
 * JSON object on stdout with the raw measurements: per-repetition host
 * timings, the simulated statistics, the outcome of every correctness
 * check and, in traced mode, the per-layer driver-loop timings.
 * perfbench/run.py builds this program, runs it and turns the raw
 * measurements into the benchmark's metrics.
 *
 *   perfbench_driver --workload <name> --seed <n> --seconds <s>
 *                    --mode timed|traced --tmp <dir>
 *
 * Every input (mix seeds, the simulator seed, driver-loop addresses) is
 * derived from --seed; the simulator only ever sees generated inputs.
 * Nothing here changes the simulator: host times are taken from
 * outside, around calls into each layer.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/partitioned_bank.hh"
#include "common/json.hh"
#include "common/profile.hh"
#include "common/stats.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "sim/experiment.hh"
#include "sim/experiment_runner.hh"
#include "sim/platform.hh"
#include "sim/result_store.hh"
#include "sim/scheme_registry.hh"
#include "sim/system.hh"
#include "workload/app_profile.hh"
#include "workload/mix.hh"
#include "workload/traffic.hh"

namespace
{

using namespace cdcs;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** SplitMix64 finalizer: decorrelates seeds derived from one seed. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Small deterministic generator for driver-loop inputs. */
struct InputRng
{
    std::uint64_t state;
    std::uint64_t
    next()
    {
        state += 0x9E3779B97F4A7C15ull;
        return derive(state, 0);
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

/** Heap bytes in use (arena + mmapped blocks). */
double
heapBytes()
{
    const struct mallinfo2 info = mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd);
}

// ------------------------------------------------------------ workloads

/**
 * One benchmark workload; see perfbench/README.md for why each exists.
 * Sizes keep one repetition at a few host seconds on a 4-core x86 box
 * while the warmup epochs issue at least as many accesses as the LLC
 * has lines, so measured epochs start from warm caches.
 */
struct Workload
{
    std::string name;
    SystemConfig cfg;
    std::vector<std::string> lineup;
    int apps = 64;
    /**
     * Mixes derived from the seed. A serial workload runs one mix per
     * repetition and cycles through them (averaging out the seed's
     * effect on host speed); the sweep runs all of them every pass.
     */
    int mixes = 1;
    /** Run as a parallel ExperimentRunner sweep with a ResultStore. */
    bool sweep = false;
};

/** The skew overlay of skew_contention_tier (the tiering study's). */
void
applySkewOverlay(SystemConfig &cfg)
{
    cfg.skewAlpha = 1.25;
    cfg.skewFraction = 0.8;
    cfg.skewLines = std::uint64_t{1} << 21;
    cfg.skewHotLines = std::uint64_t{1} << 18;
    cfg.skewPageHot = true;
    cfg.skewDriftEpochs = 2;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload *w)
{
    w->name = name;
    SystemConfig &cfg = w->cfg;
    cfg.seed = derive(seed, 1);
    const std::vector<std::string> fig11 = {"snuca", "rnuca", "jigsaw-c",
                                            "jigsaw-r", "cdcs"};
    if (name == "fig11_cmp64") {
        cfg.accessesPerThreadEpoch = 2048;
        cfg.epochs = 8;
        cfg.warmupEpochs = 4;
        w->lineup = fig11;
        w->mixes = 4;
    } else if (name == "mesh16_256app") {
        cfg.meshWidth = 16;
        cfg.meshHeight = 16;
        cfg.accessesPerThreadEpoch = 2048;
        cfg.epochs = 6;
        cfg.warmupEpochs = 4;
        w->apps = 256;
        w->lineup = {"snuca", "jigsaw-r", "cdcs"};
    } else if (name == "skew_contention_tier") {
        w->mixes = 4;
        cfg.accessesPerThreadEpoch = 2048;
        cfg.epochs = 8;
        cfg.warmupEpochs = 4;
        cfg.nocModel = "contention";
        cfg.memPlacement = "contention";
        cfg.farMemRatio = 0.5;
        cfg.farMemLatency = 600;
        cfg.memTiering = "hotness";
        applySkewOverlay(cfg);
        w->lineup = {"snuca", "jigsaw-r", "cdcs"};
    } else if (name == "sweep_parallel") {
        cfg.accessesPerThreadEpoch = 2048;
        cfg.epochs = 6;
        cfg.warmupEpochs = 4;
        w->lineup = fig11;
        w->mixes = 8;
        w->sweep = true;
    } else {
        return false;
    }
    return true;
}

/**
 * Mix `m` of a workload: a stratified draw from the SPEC CPU2006-like
 * library. Every profile appears floor(apps / P) times, the seed
 * picks the remaining apps (without repetition) and the core order,
 * and seeds the address streams. A plain random draw (MixSpec::cpu)
 * makes host speed vary by more than 10% between seeds, which would
 * drown the changes the benchmark exists to detect.
 */
MixSpec
mixOf(const Workload &w, std::uint64_t seed, int m)
{
    const std::uint64_t mix_seed =
        derive(seed, 100 + static_cast<unsigned>(m));
    InputRng rng{mix_seed};
    const auto &lib = specCpu2006();
    std::vector<std::string> names;
    for (int i = 0; i + static_cast<int>(lib.size()) <= w.apps;
         i += static_cast<int>(lib.size())) {
        for (const AppProfile &app : lib)
            names.push_back(app.name);
    }
    std::vector<std::string> rest;
    for (const AppProfile &app : lib)
        rest.push_back(app.name);
    for (std::size_t i = rest.size(); i > 1; i--)
        std::swap(rest[i - 1], rest[rng.below(i)]);
    rest.resize(static_cast<std::size_t>(w.apps) - names.size());
    names.insert(names.end(), rest.begin(), rest.end());
    for (std::size_t i = names.size(); i > 1; i--)
        std::swap(names[i - 1], names[rng.below(i)]);
    return MixSpec::named(std::move(names), mix_seed);
}

// ---------------------------------------------------------------- checks

struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    expect(bool ok, const std::string &what)
    {
        attempted++;
        if (!ok) {
            failed++;
            if (failures.size() < 20)
                failures.push_back(what);
        }
    }
};

/** Bit-exact FNV-1a fingerprint of a run's simulated statistics. */
struct Fingerprint
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; i++) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }
    template <typename T>
    void
    add(const T &v)
    {
        bytes(&v, sizeof(v));
    }
    template <typename T>
    void
    addAll(const std::vector<T> &v)
    {
        for (const T &x : v)
            add(x);
    }
};

std::uint64_t
fingerprint(const RunResult &r)
{
    // Host-time fields (avgTimes) are deliberately left out.
    Fingerprint f;
    f.addAll(r.threadInstrs);
    f.addAll(r.threadCycles);
    f.addAll(r.procThroughput);
    f.add(r.totalInstrs);
    f.add(r.wallCycles);
    f.add(r.llcAccesses);
    f.add(r.llcHits);
    f.add(r.demandMoves);
    f.add(r.moveProbes);
    f.add(r.memAccesses);
    f.add(r.farMemAccesses);
    f.add(r.instantMoved);
    f.add(r.bulkInvalidated);
    f.add(r.bgInvalidated);
    f.add(r.pausedCycles);
    f.add(r.reconfigs);
    f.add(r.onChipLatSum);
    f.add(r.offChipLatSum);
    f.add(r.farOffChipLatSum);
    for (std::uint64_t t : r.trafficFlitHops)
        f.add(t);
    f.add(r.memMigratedPages);
    f.add(r.tierPromotions);
    f.add(r.tierDemotions);
    f.add(r.farResidentPages);
    f.addAll(r.memCtrlAccesses);
    return f.h;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0 : (v[(n - 1) / 2] + v[n / 2]) / 2.0;
}

/** Per-run invariants every simulated run must satisfy. */
void
checkRun(Checks &checks, const Workload &w, const RunResult &r,
         const std::string &label)
{
    checks.expect(r.llcAccesses ==
                      r.llcHits + r.demandMoves + r.memAccesses,
                  label + ": llcAccesses != llcHits + demandMoves + "
                          "memAccesses");
    checks.expect(r.farMemAccesses <= r.memAccesses,
                  label + ": farMemAccesses > memAccesses");
    const std::uint64_t expect_accesses =
        static_cast<std::uint64_t>(w.apps) *
        w.cfg.accessesPerThreadEpoch *
        static_cast<std::uint64_t>(w.cfg.epochs - w.cfg.warmupEpochs);
    checks.expect(r.llcAccesses == expect_accesses,
                  label + ": post-warmup accesses != threads x epoch "
                          "accesses x measured epochs");
    bool ok = std::isfinite(r.totalInstrs) && std::isfinite(r.wallCycles) &&
        std::isfinite(r.onChipLatSum) && std::isfinite(r.offChipLatSum) &&
        r.totalInstrs > 0.0 && r.wallCycles > 0.0;
    for (double v : r.procThroughput)
        ok = ok && std::isfinite(v) && v > 0.0;
    for (double v : r.threadIpc)
        ok = ok && std::isfinite(v);
    checks.expect(ok, label + ": non-finite or empty results");
}

/** Issued accesses of one run (warmup included; no churn). */
std::uint64_t
issuedAccesses(const Workload &w)
{
    return static_cast<std::uint64_t>(w.apps) *
        w.cfg.accessesPerThreadEpoch *
        static_cast<std::uint64_t>(w.cfg.epochs);
}

// ------------------------------------------------------------ one pass

/** Host timings and simulated results of one workload repetition. */
struct Rep
{
    double wallS = 0.0;
    double setupS = 0.0;
    double simS = 0.0;
    std::uint64_t accesses = 0;
    /** Per-scheme results of the pass's first mix. */
    std::vector<RunResult> runs;
    /** S-NUCA's weighted speedup over itself is exactly 1 everywhere. */
    bool snucaWsOne = false;
    double wsCdcs = 0.0;       ///< Gmean over the pass's mixes.
    double onchipCdcs = 0.0;   ///< Mean over the pass's mixes, cycles.
    std::uint64_t digest = 0;  ///< Fingerprint of all stats.
};

std::size_t
schemeIndex(const Workload &w, const std::string &name)
{
    const auto it = std::find(w.lineup.begin(), w.lineup.end(), name);
    return static_cast<std::size_t>(it - w.lineup.begin());
}

/**
 * Serial pass (workloads 1-3) over mix `m`: each scheme of the lineup
 * is built and run in turn, so set-up (mix + platform construction)
 * and simulation are timed separately around System's constructor and
 * run().
 */
Rep
runSerialPass(const Workload &w, std::uint64_t seed, int m)
{
    Rep rep;
    const auto t0 = Clock::now();
    const std::vector<SchemeSpec> schemes = schemesByName(w.lineup);
    std::vector<RunResult> row;
    Fingerprint digest;
    for (const SchemeSpec &spec : schemes) {
        const auto s0 = Clock::now();
        auto sys = std::make_unique<System>(w.cfg, spec,
                                            buildMix(mixOf(w, seed, m)));
        const auto s1 = Clock::now();
        RunResult r = sys->run();
        const auto s2 = Clock::now();
        sys.reset();
        rep.setupS += std::chrono::duration<double>(s1 - s0).count();
        rep.simS += std::chrono::duration<double>(s2 - s1).count();
        rep.accesses += issuedAccesses(w);
        digest.add(fingerprint(r));
        row.push_back(std::move(r));
    }
    rep.wallS = secondsSince(t0);
    const std::size_t c = schemeIndex(w, "cdcs");
    rep.wsCdcs = weightedSpeedup(row[c], row[0]);
    rep.onchipCdcs = row[c].avgOnChipLatency();
    rep.snucaWsOne = weightedSpeedup(row[0], row[0]) == 1.0;
    rep.digest = digest.h;
    rep.runs = std::move(row);
    return rep;
}

unsigned
workersFor(const Workload &w)
{
    return w.sweep ? std::max(1u, std::thread::hardware_concurrency()) : 1u;
}

/** Pool counters of one runner pass. */
struct PoolStats
{
    double idleS = 0.0;
    std::uint64_t steals = 0;
};

/**
 * Runner pass: a fresh ExperimentRunner with a fresh on-disk
 * ResultStore runs every scheme x mix job over the first `mixes` mixes
 * on `workers` pool threads. Set-up is the runner/store construction
 * plus building the lineup's mix and platforms once (what every job
 * pays before its first access).
 */
Rep
runnerPass(const Workload &w, std::uint64_t seed, unsigned workers,
           int mixes, const std::string &store_dir,
           SweepResult *out = nullptr, PoolStats *pool = nullptr)
{
    Rep rep;
    const auto t0 = Clock::now();
    const std::vector<SchemeSpec> schemes = schemesByName(w.lineup);
    ExperimentRunner::Options opts;
    opts.workers = workers;
    opts.cacheDir = store_dir;
    auto runner = std::make_unique<ExperimentRunner>(opts);
    for (const SchemeSpec &spec : schemes)
        System probe(w.cfg, spec, buildMix(mixOf(w, seed, 0)));
    rep.setupS = secondsSince(t0);
    const auto s1 = Clock::now();
    SweepResult sweep = runner->sweep(
        w.cfg, schemes, mixes, [&](int m) { return mixOf(w, seed, m); });
    rep.simS = secondsSince(s1);
    if (pool != nullptr) {
        pool->idleS =
            static_cast<double>(runner->taskPool().idleNanos()) / 1e9;
        pool->steals = runner->taskPool().stealCount();
    }
    runner.reset();
    rep.wallS = secondsSince(t0);
    rep.accesses = issuedAccesses(w) * schemes.size() *
        static_cast<std::uint64_t>(mixes);
    rep.runs = sweep.firstRun;
    const std::size_t c = schemeIndex(w, "cdcs");
    rep.wsCdcs = gmean(sweep.ws[c]);
    rep.snucaWsOne = std::all_of(sweep.ws[0].begin(), sweep.ws[0].end(),
                                 [](double ws) { return ws == 1.0; });
    rep.onchipCdcs = sweep.onChipLat[c];
    Fingerprint digest;
    const std::string json = sweep.toJson();
    digest.bytes(json.data(), json.size());
    rep.digest = digest.h;
    if (out != nullptr)
        *out = std::move(sweep);
    return rep;
}

void
checkRep(Checks &checks, const Workload &w, const Rep &rep,
         const std::string &label)
{
    checks.expect(rep.runs.size() == w.lineup.size(),
                  label + ": missing scheme results");
    for (std::size_t s = 0; s < rep.runs.size(); s++)
        checkRun(checks, w, rep.runs[s], label + " " + w.lineup[s]);
    checks.expect(rep.snucaWsOne, label + ": S-NUCA weighted speedup != 1");
    checks.expect(std::isfinite(rep.wsCdcs) && rep.wsCdcs > 0.0,
                  label + ": CDCS weighted speedup not finite");
    checks.expect(std::isfinite(rep.onchipCdcs) && rep.onchipCdcs > 0.0,
                  label + ": CDCS on-chip latency not finite");
}

// ---------------------------------------------------------- JSON output

struct JsonOut
{
    std::string s = "{";
    bool first = true;

    void
    key(const std::string &k)
    {
        s += first ? "" : ",";
        first = false;
        s += "\"" + k + "\":";
    }
    void
    num(const std::string &k, double v)
    {
        key(k);
        char buf[64];
        if (std::isfinite(v))
            std::snprintf(buf, sizeof(buf), "%.17g", v);
        else
            std::snprintf(buf, sizeof(buf), "null");
        s += buf;
    }
    void
    list(const std::string &k, const std::vector<double> &v)
    {
        key(k);
        s += "[";
        for (std::size_t i = 0; i < v.size(); i++) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "",
                          v[i]);
            s += buf;
        }
        s += "]";
    }
    void
    str(const std::string &k, const std::string &v)
    {
        key(k);
        s += jsonString(v);
    }
    void
    raw(const std::string &k, const std::string &v)
    {
        key(k);
        s += v;
    }
    std::string done() { return s + "}"; }
};

std::string
failuresJson(const Checks &checks)
{
    std::string s = "[";
    for (std::size_t i = 0; i < checks.failures.size(); i++)
        s += (i ? "," : "") + jsonString(checks.failures[i]);
    return s + "]";
}

// ----------------------------------------------------------- timed mode

int
runTimed(const Workload &w, std::uint64_t seed, double seconds,
         const std::string &tmp)
{
    Checks checks;
    const unsigned workers = workersFor(w);
    std::uint64_t serial_digest = 0;
    if (w.sweep) {
        // Reference: the same sweep serially; parallel passes must
        // reproduce its statistics exactly.
        const Rep serial =
            runnerPass(w, seed, 1, w.mixes, tmp + "/store-serial");
        std::filesystem::remove_all(tmp + "/store-serial");
        checkRep(checks, w, serial, "serial sweep");
        serial_digest = serial.digest;
    }

    // Serial workloads cycle through their mixes, one per repetition,
    // and run whole cycles only, so every mix weighs the same in the
    // medians; each mix runs at least twice, so its statistics can be
    // compared across repetitions.
    const int cycle = w.sweep ? 1 : w.mixes;
    const int min_reps = w.sweep ? 3 : 2 * cycle;
    std::vector<Rep> reps;
    std::vector<std::uint64_t> first_digest;
    std::vector<double> ws, onchip;
    const auto start = Clock::now();
    for (int index = 0; index < min_reps || index % cycle != 0 ||
         secondsSince(start) < seconds;
         index++) {
        const int m = index % cycle;
        const std::string label = "rep" + std::to_string(index);
        const std::string dir = tmp + "/store-" + std::to_string(index);
        Rep rep = w.sweep ? runnerPass(w, seed, workers, w.mixes, dir)
                          : runSerialPass(w, seed, m);
        std::filesystem::remove_all(dir);
        checkRep(checks, w, rep, label);
        if (index < cycle) {
            first_digest.push_back(rep.digest);
            ws.push_back(rep.wsCdcs);
            onchip.push_back(rep.onchipCdcs);
        } else {
            checks.expect(rep.digest == first_digest[m],
                          label + ": simulated statistics differ from "
                                  "the first repetition of its mix");
        }
        if (w.sweep) {
            checks.expect(rep.digest == serial_digest,
                          label + ": parallel sweep differs from serial");
        }
        rep.runs.clear();
        reps.push_back(std::move(rep));
    }

    std::vector<double> wall, setup, rate, mix;
    for (std::size_t i = 0; i < reps.size(); i++) {
        wall.push_back(reps[i].wallS);
        setup.push_back(reps[i].setupS);
        rate.push_back(static_cast<double>(reps[i].accesses) /
                       reps[i].simS);
        mix.push_back(static_cast<double>(i % static_cast<std::size_t>(cycle)));
    }
    JsonOut out;
    out.str("workload", w.name);
    out.str("mode", "timed");
    out.num("attempted", static_cast<double>(checks.attempted));
    out.num("failed", static_cast<double>(checks.failed));
    out.raw("failures", failuresJson(checks));
    out.num("workers", workers);
    out.list("wall_s", wall);
    out.list("setup_s", setup);
    out.list("accesses_per_s", rate);
    out.list("mix", mix);
    out.num("peak_rss_mb", peakRssMb());
    out.num("ws_gmean_cdcs", gmean(ws));
    out.num("onchip_lat_cdcs", mean(onchip));
    std::printf("%s\n", out.done().c_str());
    return 0;
}

// ---------------------------------------------------------- traced mode

/** Mean nanoseconds per call of `fn` over `n` calls. */
template <typename Fn>
double
nsPerCall(std::uint64_t n, Fn &&fn)
{
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < n; i++)
        fn(i);
    return secondsSince(t0) * 1e9 / static_cast<double>(n);
}

/** Keeps driver-loop results observable so loops are not elided. */
std::uint64_t sink = 0;

/** Per-layer metric values by name. */
using LayerValues = std::map<std::string, double>;

void
cacheLoops(const Workload &w, std::uint64_t seed, LayerValues &out)
{
    WorkloadMix mix = buildMix(mixOf(w, seed, 0));
    const int threads = mix.numThreads();
    InputRng rng{derive(seed, 7)};
    PartitionedBank bank(w.cfg.bankLines, w.cfg.bankWays, derive(seed, 8));

    // Warm: fill the bank to capacity twice over from the mix's own
    // address streams, so every set is full and victims are real.
    std::vector<LineAddr> filled;
    filled.reserve(w.cfg.bankLines * 2);
    for (std::uint64_t i = 0; i < w.cfg.bankLines * 2; i++) {
        const auto t = static_cast<ThreadId>(rng.below(threads));
        const AccessSample a = mix.nextAccess(t);
        if (!bank.probeHit(a.line, 0, 0))
            bank.fill(a.line, 0, 0);
        filled.push_back(a.line);
    }
    // Resident lines: the most recent fills that still hit.
    std::vector<LineAddr> resident;
    for (auto it = filled.rbegin(); it != filled.rend() &&
         resident.size() < w.cfg.bankLines / 2; ++it) {
        if (bank.probeHit(*it, 0, 0))
            resident.push_back(*it);
    }
    // Absent lines: a VC range no mix thread uses.
    std::vector<LineAddr> absent;
    for (std::size_t i = 0; i < resident.size(); i++)
        absent.push_back(WorkloadMix::lineIn(0x7FFF, rng.below(1u << 30)));
    const std::uint64_t n = resident.size() * 8;
    out["cache.probe_hit_ns"] = nsPerCall(n, [&](std::uint64_t i) {
        sink += bank.probeHit(resident[i % resident.size()], 0, 0);
    });
    out["cache.probe_miss_ns"] = nsPerCall(n, [&](std::uint64_t i) {
        sink += bank.probeHit(absent[i % absent.size()] + i, 0, 0);
    });
    // A full walk whose predicate matches nothing (no line carries
    // that tag): the per-set scan cost of the background walker.
    std::uint64_t invalidated = 0;
    const std::uint32_t sets = bank.numSets();
    bank.resetWalk();
    out["cache.walk_set_ns"] =
        nsPerCall(64, [&](std::uint64_t) {
            bank.walkInvalidate(
                sets, [](const auto &line) { return line.vc == 0x7FFF; },
                invalidated);
        }) / static_cast<double>(sets);
    out["cache.fill_ns"] = nsPerCall(n, [&](std::uint64_t i) {
        sink += bank.fill(absent[i % absent.size()] + i * 7919, 0, 0)
                    .evicted;
    });

    // Tag storage: heap bytes a filled bank holds, per line.
    constexpr int kBanks = 16;
    const double before = heapBytes();
    {
        std::vector<PartitionedBank> banks;
        banks.reserve(kBanks);
        for (int b = 0; b < kBanks; b++) {
            banks.emplace_back(w.cfg.bankLines, w.cfg.bankWays,
                               derive(seed, 9 + static_cast<unsigned>(b)));
            for (std::uint64_t i = 0; i < w.cfg.bankLines; i++)
                banks.back().fill(rng.next() >> 8, 0, 0);
        }
        out["cache.tag_bytes_per_line"] =
            (heapBytes() - before) /
            static_cast<double>(kBanks * w.cfg.bankLines);
    }
}

void
workloadLoops(const Workload &w, std::uint64_t seed, LayerValues &out)
{
    const std::uint64_t n = 2'000'000;
    {
        WorkloadMix mix = buildMix(mixOf(w, seed, 0));
        const auto threads = static_cast<std::uint64_t>(mix.numThreads());
        out["workload.next_ns"] = nsPerCall(n, [&](std::uint64_t i) {
            sink += mix.nextAccess(static_cast<ThreadId>(i % threads)).line;
        });
    }
    {
        SystemConfig skew = w.cfg;
        applySkewOverlay(skew);
        WorkloadMix mix = buildMix(mixOf(w, seed, 0));
        TrafficConfig traffic;
        traffic.skewAlpha = skew.skewAlpha;
        traffic.skewFraction = skew.skewFraction;
        traffic.skewLines = skew.skewLines;
        traffic.skewHotLines = skew.skewHotLines;
        traffic.skewPageHot = skew.skewPageHot;
        traffic.skewDriftEpochs = skew.skewDriftEpochs;
        traffic.seed = skew.seed;
        mix.attachTraffic(traffic);
        const auto threads = static_cast<std::uint64_t>(mix.numThreads());
        out["workload.next_skew_ns"] =
            nsPerCall(n, [&](std::uint64_t i) {
                sink +=
                    mix.nextAccess(static_cast<ThreadId>(i % threads)).line;
            });
    }
}

/** NUCA maps, timed on policies a short run has configured. */
void
nucaLoops(const Workload &w, std::uint64_t seed, LayerValues &out)
{
    // A short run: enough for one reconfiguration to set up the VTBs.
    SystemConfig cfg = w.cfg;
    cfg.epochs = 3;
    cfg.warmupEpochs = 1;
    const std::pair<const char *, const char *> kinds[] = {
        {"nuca.map_ns.snuca", "snuca"},
        {"nuca.map_ns.rnuca", "rnuca"},
        {"nuca.map_ns.partitioned", "cdcs"}};
    for (const auto &[metric, scheme] : kinds) {
        System sys(cfg, schemeByName(scheme), buildMix(mixOf(w, seed, 0)));
        sys.run();
        WorkloadMix mix = buildMix(mixOf(w, seed, 0));
        const int threads = mix.numThreads();
        std::vector<AccessSample> samples;
        for (int i = 0; i < 200'000; i++)
            samples.push_back(mix.nextAccess(static_cast<ThreadId>(i % threads)));
        const auto &cores = sys.threadPlacement();
        NucaPolicy &policy = sys.policy();
        out[metric] =
            nsPerCall(samples.size() * 5, [&](std::uint64_t i) {
                const std::size_t k = i % samples.size();
                const auto t = static_cast<ThreadId>(k % threads);
                sink += policy.map(t, cores[t], samples[k].vc,
                                   samples[k].line).bank;
            });
    }
}

void
netLoops(const Workload &w, std::uint64_t seed, LayerValues &out)
{
    InputRng rng{derive(seed, 11)};
    WorkloadMix mix = buildMix(mixOf(w, seed, 0));
    const std::uint64_t n = 2'000'000;
    const std::pair<const char *, std::string> models[] = {
        {"zero-load", "zero_load"}, {"contention", "contention"}};
    for (const auto &[model, key] : models) {
        SystemConfig cfg = w.cfg;
        cfg.nocModel = model;
        Platform platform(cfg, SchemeSpec::snuca(), mix);
        NocModel &noc = *platform.noc;
        const auto tiles = static_cast<std::uint64_t>(platform.mesh.numTiles());
        const int ctrls = platform.mesh.numMemCtrls();
        std::vector<std::pair<TileId, TileId>> pairs;
        for (int i = 0; i < 4096; i++) {
            pairs.emplace_back(static_cast<TileId>(rng.below(tiles)),
                               static_cast<TileId>(rng.below(tiles)));
        }
        if (key == "contention") {
            const double add_ns = nsPerCall(n, [&](std::uint64_t i) {
                const auto &p = pairs[i % pairs.size()];
                noc.addTraffic(TrafficClass::L2ToLLC, p.first, p.second, 5);
            });
            out["net.add_traffic_ns.contention"] = add_ns;
            const auto t0 = Clock::now();
            constexpr int kUpdates = 8;
            for (int u = 0; u < kUpdates; u++) {
                for (std::uint64_t i = 0; i < 100'000; i++) {
                    const auto &p = pairs[(i * 31 + u) % pairs.size()];
                    noc.addTraffic(TrafficClass::L2ToLLC, p.first,
                                   p.second, 5);
                }
                noc.epochUpdate(400'000.0);
            }
            // The traffic adds are timed above; charge them out here.
            out["net.epoch_update_ms"] =
                (secondsSince(t0) * 1e9 -
                 add_ns * kUpdates * 100'000.0) /
                1e6 / kUpdates;
        }
        out["net.query_ns." + key] =
            nsPerCall(n, [&](std::uint64_t i) {
                const auto &p = pairs[i % pairs.size()];
                const double lat = (i & 1) == 0
                    ? noc.latency(p.first, p.second, 1)
                    : noc.memLatency(p.first,
                                     static_cast<int>(i % static_cast<std::uint64_t>(ctrls)),
                                     5);
                sink += static_cast<std::uint64_t>(lat);
            });
    }
}

void
monitorLoops(const Workload &w, std::uint64_t seed, LayerValues &out)
{
    WorkloadMix mix = buildMix(mixOf(w, seed, 0));
    Platform platform(w.cfg, SchemeSpec::cdcs(), mix);
    const int threads = mix.numThreads();
    std::vector<AccessSample> samples;
    for (int i = 0; i < 500'000; i++)
        samples.push_back(mix.nextAccess(static_cast<ThreadId>(i % threads)));
    out["monitor.access_ns"] =
        nsPerCall(samples.size() * 4, [&](std::uint64_t i) {
            const AccessSample &a = samples[i % samples.size()];
            platform.monitors[a.vc]->access(a.line);
        });
    const std::size_t mons = platform.monitors.size();
    out["monitor.miss_curve_us"] =
        nsPerCall(mons * 4, [&](std::uint64_t i) {
            sink += static_cast<std::uint64_t>(
                platform.monitors[i % mons]->missCurve().size());
        }) / 1e3;
}

void
memLoops(const Workload &w, std::uint64_t seed, LayerValues &out)
{
    InputRng rng{derive(seed, 13)};
    WorkloadMix mix = buildMix(mixOf(w, seed, 0));
    const int threads = mix.numThreads();
    std::vector<AccessSample> samples;
    for (int i = 0; i < 200'000; i++)
        samples.push_back(mix.nextAccess(static_cast<ThreadId>(i % threads)));
    const std::uint64_t n = 1'000'000;
    for (const char *policy : {"interleave", "contention"}) {
        SystemConfig cfg = w.cfg;
        cfg.memPlacement = policy;
        cfg.farMemRatio = 0.0;
        if (std::string(policy) == "contention")
            cfg.nocModel = "contention";
        Platform platform(cfg, SchemeSpec::snuca(), mix);
        const auto tiles = static_cast<std::uint64_t>(platform.mesh.numTiles());
        out[std::string("mem.place_ns.") + policy] =
            nsPerCall(n, [&](std::uint64_t i) {
                const AccessSample &a = samples[i % samples.size()];
                sink += static_cast<std::uint64_t>(
                    platform.memPlacement
                        ->placementFor(static_cast<TileId>(i % tiles), a.line)
                        .ctrl);
            });
    }
    SystemConfig cfg = w.cfg;
    cfg.farMemRatio = 0.5;
    cfg.memTiering = "hotness";
    Platform platform(cfg, SchemeSpec::snuca(), mix);
    const auto tiles = static_cast<std::uint64_t>(platform.mesh.numTiles());
    double epoch_s = 0.0;
    constexpr int kEpochs = 6;
    for (int e = 0; e < kEpochs; e++) {
        for (std::size_t i = 0; i < samples.size(); i++) {
            sink += static_cast<std::uint64_t>(
                platform.memPlacement
                    ->placementFor(static_cast<TileId>(rng.below(tiles)),
                                   samples[i].line)
                    .ctrl);
        }
        const auto t0 = Clock::now();
        platform.tiering->epochUpdate(*platform.noc, 400'000.0);
        epoch_s += secondsSince(t0);
    }
    out["mem.tier_epoch_ms"] = epoch_s * 1e3 / kEpochs;
}

void
setupLoops(const Workload &w, std::uint64_t seed, LayerValues &out)
{
    std::vector<double> ms;
    for (const SchemeSpec &spec : schemesByName(w.lineup)) {
        const auto t0 = Clock::now();
        System sys(w.cfg, spec, buildMix(mixOf(w, seed, 0)));
        ms.push_back(secondsSince(t0) * 1e3);
    }
    out["sim.setup_ms_per_system"] = median(ms);
}

void
storeLoops(const Workload &w, const RunResult &result,
           const std::string &dir, LayerValues &out)
{
    ResultStore store(dir);
    constexpr int kRecords = 64;
    std::vector<std::string> keys;
    for (int i = 0; i < kRecords; i++)
        keys.push_back(w.name + "/record" + std::to_string(i));
    const auto t0 = Clock::now();
    for (const std::string &key : keys)
        store.save(key, result);
    out["store.save_us"] = secondsSince(t0) * 1e6 / kRecords;
    RunResult loaded;
    const auto t1 = Clock::now();
    for (const std::string &key : keys)
        sink += store.load(key, &loaded);
    out["store.load_us"] = secondsSince(t1) * 1e6 / kRecords;
    std::uintmax_t bytes = 0;
    int files = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file() &&
            entry.path().filename().string() != ".lock") {
            bytes += entry.file_size();
            files++;
        }
    }
    out["store.record_bytes"] =
        files > 0 ? static_cast<double>(bytes) / files : 0.0;
}

std::uint64_t
statDelta(const StatRegistry::Snapshot &a, const StatRegistry::Snapshot &b,
          const std::string &name)
{
    for (std::size_t id = 0; id < StatRegistry::numStats(); id++) {
        if (StatRegistry::name(static_cast<StatId>(id)) == name)
            return b[static_cast<StatId>(id)] - a[static_cast<StatId>(id)];
    }
    return 0;
}

int
runTraced(const Workload &w, std::uint64_t seed, double seconds,
          const std::string &tmp)
{
    Checks checks;
    const unsigned workers = workersFor(w);
    // Serial workloads trace their first mix; the sweep all of them.
    const int mixes = w.sweep ? w.mixes : 1;

    // Untraced, traced and timing=1 passes, all through the same
    // runner path, in rounds until `seconds` have passed (two at
    // least), so the overheads compare medians and neither side always
    // runs first on a cold process. The spans and stats of the last
    // traced pass feed the per-layer rows.
    const std::string trace_path = tmp + "/trace.json";
    std::vector<double> plain_s, traced_s, timing_s;
    std::uint64_t reference = 0;
    SweepResult sweep;
    PoolStats pool;
    std::uint64_t accesses = 0;
    StatRegistry::Snapshot stats0, stats1;
    const auto start = Clock::now();
    for (int round = 0; round < 2 || secondsSince(start) < seconds;
         round++) {
        const std::string r = std::to_string(round);
        const Rep plain =
            runnerPass(w, seed, workers, mixes, tmp + "/store-plain" + r);
        checkRep(checks, w, plain, "untraced" + r);
        if (round == 0)
            reference = plain.digest;
        checks.expect(plain.digest == reference,
                      "untraced" + r + ": statistics differ across rounds");
        plain_s.push_back(plain.wallS);

        StatRegistry::setEnabled(true);
        stats0 = StatRegistry::snapshot();
        Tracer::open(trace_path);
        const Rep traced = runnerPass(w, seed, workers, mixes,
                                      tmp + "/store-traced" + r, &sweep,
                                      &pool);
        checks.expect(Tracer::close(), "trace file could not be written");
        stats1 = StatRegistry::snapshot();
        StatRegistry::setEnabled(false);
        checkRep(checks, w, traced, "traced" + r);
        checks.expect(traced.digest == reference,
                      "traced" + r + ": tracing changed the statistics");
        traced_s.push_back(traced.wallS);
        accesses = traced.accesses;

        Profiler::setEnabled(true);
        const Rep timing =
            runnerPass(w, seed, workers, mixes, tmp + "/store-timing" + r);
        Profiler::setEnabled(false);
        checks.expect(timing.digest == reference,
                      "timing" + r + ": timing=1 changed the statistics");
        timing_s.push_back(timing.wallS);
        for (const char *d : {"/store-plain", "/store-traced",
                              "/store-timing"})
            std::filesystem::remove_all(tmp + d + r);
    }

    LayerValues loops;
    workloadLoops(w, seed, loops);
    cacheLoops(w, seed, loops);
    nucaLoops(w, seed, loops);
    netLoops(w, seed, loops);
    monitorLoops(w, seed, loops);
    memLoops(w, seed, loops);
    setupLoops(w, seed, loops);
    storeLoops(w, sweep.firstRun.back(), tmp + "/store-loop", loops);
    std::filesystem::remove_all(tmp + "/store-loop");

    // Simulated counts of the traced pass (mix 0, whole lineup).
    std::uint64_t llc = 0, hits = 0, moves = 0, bg = 0, mem = 0, far = 0,
                  migrations = 0, promotions = 0;
    for (const RunResult &r : sweep.firstRun) {
        llc += r.llcAccesses;
        hits += r.llcHits;
        moves += r.demandMoves;
        bg += r.bgInvalidated;
        mem += r.memAccesses;
        far += r.farMemAccesses;
        migrations += r.memMigratedPages;
        promotions += r.tierPromotions;
    }
    auto &v = loops;
    v["cache.hit_ratio"] = static_cast<double>(hits) / llc;
    v["cache.demand_moves"] = static_cast<double>(moves);
    v["cache.bg_invalidated"] = static_cast<double>(bg);
    v["mem.migrations"] = static_cast<double>(migrations);
    v["mem.tier_promotions"] = static_cast<double>(promotions);
    v["mem.far_access_share"] =
        mem > 0 ? static_cast<double>(far) / mem : 0.0;
    v["noc.link_flits"] =
        static_cast<double>(statDelta(stats0, stats1, "noc.link_flits"));
    v["noc.saturated_links"] =
        static_cast<double>(statDelta(stats0, stats1, "noc.saturated_links"));
    v["pool.steals"] = static_cast<double>(pool.steals);
    v["pool.idle_s"] = pool.idleS;
    for (const char *scheme : {"jigsaw-r", "cdcs"}) {
        const RuntimeStepTimes &t = sweep.firstRun[schemeIndex(w, scheme)].avgTimes;
        v[std::string("runtime.alloc_us.") + scheme] = t.allocUs;
        v[std::string("runtime.thread_place_us.") + scheme] = t.threadPlaceUs;
        v[std::string("runtime.data_place_us.") + scheme] = t.dataPlaceUs;
    }

    // Host time per access that the layer rows account for: one
    // stream draw, one NUCA map, one bank probe (plus victim pick and
    // fill on a miss), the NoC legs (core<->bank always, bank<->memory
    // on a miss) and, on a miss, one memory placement; monitors are
    // probed by the partitioned schemes only.
    const double h = v["cache.hit_ratio"];
    const double miss = 1.0 - h;
    double map_ns = 0.0, partitioned = 0.0;
    for (const std::string &scheme : w.lineup) {
        const bool part = scheme != "snuca" && scheme != "rnuca";
        map_ns += v[part ? "nuca.map_ns.partitioned"
                         : "nuca.map_ns." + scheme];
        partitioned += part ? 1.0 : 0.0;
    }
    const double schemes = static_cast<double>(w.lineup.size());
    const bool contention = w.cfg.nocModel == "contention";
    const double legs = 2.0 + 2.0 * miss;
    const double explained =
        v[w.cfg.skewAlpha > 0.0 ? "workload.next_skew_ns"
                                : "workload.next_ns"] +
        map_ns / schemes +
        h * v["cache.probe_hit_ns"] +
        miss * (v["cache.probe_miss_ns"] + v["cache.fill_ns"]) +
        legs * v[contention ? "net.query_ns.contention"
                            : "net.query_ns.zero_load"] +
        (contention ? legs * v["net.add_traffic_ns.contention"] : 0.0) +
        partitioned / schemes * v["monitor.access_ns"] +
        miss * v[w.cfg.memPlacement == "contention"
                     ? "mem.place_ns.contention"
                     : "mem.place_ns.interleave"];

    JsonOut out;
    out.str("workload", w.name);
    out.str("mode", "traced");
    out.num("explained_ns_per_access", explained);
    out.num("attempted", static_cast<double>(checks.attempted));
    out.num("failed", static_cast<double>(checks.failed));
    out.raw("failures", failuresJson(checks));
    out.num("workers", workers);
    out.str("trace_file", trace_path);
    out.num("untraced_wall_s", median(plain_s));
    out.num("traced_wall_s", median(traced_s));
    out.num("last_traced_wall_s", traced_s.back());
    out.num("timing_wall_s", median(timing_s));
    out.num("accesses", static_cast<double>(accesses));
    out.num("sink", static_cast<double>(sink % 2));
    JsonOut layer;
    for (const auto &[name, value] : loops)
        layer.num(name, value);
    out.raw("layer", layer.done());
    std::printf("%s\n", out.done().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --mode timed|traced --tmp <dir>\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workload, mode = "timed", tmp;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--mode")
            mode = value;
        else if (flag == "--tmp")
            tmp = value;
        else
            return usage();
    }
    Workload w;
    if (tmp.empty() || !makeWorkload(workload, seed, &w) ||
        (mode != "timed" && mode != "traced"))
        return usage();
    std::filesystem::create_directories(tmp);
    return mode == "timed" ? runTimed(w, seed, seconds, tmp)
                           : runTraced(w, seed, seconds, tmp);
}
