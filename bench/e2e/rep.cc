#include "rep.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>

#include "core/campaign.hh"
#include "core/golden_store.hh"
#include "core/study.hh"
#include "dist/coordinator.hh"
#include "util/journal.hh"
#include "util/log.hh"
#include "util/metrics.hh"

#include "probes.hh"
#include "spans.hh"

#ifndef MBUSIM_EXE
#error "MBUSIM_EXE must name the mbusim binary that serves as dist worker"
#endif

namespace e2e {

using namespace mbusim;

namespace {

/**
 * Grid of the two large-cohort sweeps: short and long goldens,
 * integer, table-driven and fixed-point code, so every component sees
 * both dead-on-arrival and propagating faults.
 */
const std::vector<std::string> SweepGrid = {
    "qsort", "sha", "dijkstra", "susan_s", "FFT", "rijndael_dec"};

enum class Kind { Sweep, Procs, Campaigns };

struct CampaignCell
{
    core::Component component;
    uint32_t faults;
};

struct Spec
{
    Kind kind = Kind::Sweep;
    std::vector<std::string> grid;   ///< Study workloads, or the one
                                     ///< workload of the campaigns
    uint32_t injections = 0;
    std::vector<CampaignCell> campaigns;
};

Spec
specFor(const std::string& name, bool smoke)
{
    Spec spec;
    if (name == "sweep_mixed" || name == "sweep_procs") {
        spec.kind = name == "sweep_mixed" ? Kind::Sweep : Kind::Procs;
        spec.grid = SweepGrid;
        spec.injections = 200;
    } else if (name == "pilot_all15") {
        for (const auto& w : workloads::allWorkloads())
            spec.grid.push_back(w.name);
        spec.injections = 10;
    } else if (name == "campaign_deep") {
        // CRC32 has the longest golden; DTLB faults are the ones the
        // convergence arm catches, L1D and RegFile fork heavily.
        spec.kind = Kind::Campaigns;
        spec.grid = {"CRC32"};
        spec.injections = 200;
        spec.campaigns = {{core::Component::L1D, 2},
                          {core::Component::DTLB, 2},
                          {core::Component::RegFile, 3}};
    } else {
        fatal("unknown workload '%s'", name.c_str());
    }
    if (smoke) {
        if (spec.grid.size() > 2)
            spec.grid.resize(2);
        spec.injections = 2;
    }
    return spec;
}

core::CampaignConfig
campaignConfig(const Spec& spec, uint64_t seed, core::Component component,
               uint32_t faults)
{
    core::CampaignConfig config;
    config.component = component;
    config.faults = faults;
    config.injections = spec.injections;
    config.seed = seed;
    config.threads = Parallelism;
    return config;
}

core::StudyConfig
studyConfig(const Spec& spec, uint64_t seed)
{
    core::StudyConfig config;
    config.injections = spec.injections;
    config.seed = seed;
    config.threads = Parallelism;
    config.workloads = spec.grid;
    return config;
}

dist::DistConfig
distConfig()
{
    dist::DistConfig config;
    config.workerProcs = Parallelism;
    config.workerExe = MBUSIM_EXE;
    return config;
}

/** A directory from mkdtemp, removed with everything in it. */
class TempDir
{
  public:
    explicit TempDir(const std::string& root)
    {
        std::string templ = root + "/bench_e2e.XXXXXX";
        if (!::mkdtemp(templ.data()))
            fatal("cannot create a temporary directory under '%s'",
                  root.c_str());
        path_ = templ;
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

/** Run @p fn(lane) on @p lanes threads (lanes 1..N) and join them. */
template <class Fn>
void
runLanes(size_t lanes, Fn fn)
{
    std::vector<std::jthread> pool;
    for (uint32_t lane = 1; lane <= lanes; ++lane)
        pool.emplace_back(fn, lane);
}

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** CPU seconds of this process and its reaped children, and the
 *  larger of their peak resident sets. */
struct Usage
{
    double cpuSeconds = 0;
    double peakRssMb = 0;
};

Usage
usageNow()
{
    rusage self{}, kids{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &kids);
    auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    Usage u;
    u.cpuSeconds = sec(self.ru_utime) + sec(self.ru_stime) +
                   sec(kids.ru_utime) + sec(kids.ru_stime);
    u.peakRssMb =
        static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
        1024.0;
    return u;
}

std::map<std::string, uint64_t>
counterValues()
{
    std::map<std::string, uint64_t> values;
    for (const auto& [name, value] : metrics().snapshot().counters)
        values[name] = value;
    return values;
}

/** One cell of the grid with its outcome counts. */
struct CellResult
{
    const workloads::Workload* workload = nullptr;
    core::Component component = core::Component::L1D;
    uint32_t faults = 1;
    core::OutcomeCounts counts;
};

/** Every (workload, component, cardinality) of a sweep grid. */
template <class Fn>
void
forEachSweepCell(const Spec& spec, Fn fn)
{
    for (const std::string& name : spec.grid) {
        for (core::Component component : core::AllComponents) {
            for (uint32_t faults = 1; faults <= 3; ++faults)
                fn(workloads::workloadByName(name), component, faults);
        }
    }
}

/** Per-cell counts of a finished sweep (memo hits only). */
std::vector<CellResult>
sweepResults(core::Study& study, const Spec& spec)
{
    std::vector<CellResult> cells;
    forEachSweepCell(spec, [&](const workloads::Workload& w,
                               core::Component component, uint32_t faults) {
        cells.push_back({&w, component, faults,
                         study.campaign(w.name, component, faults).counts});
    });
    return cells;
}

std::string
fingerprintOf(const std::vector<CellResult>& cells)
{
    std::string text;
    for (const CellResult& cell : cells) {
        text += strprintf("%s %s %u", cell.workload->name.c_str(),
                          core::componentShortName(cell.component),
                          cell.faults);
        for (uint64_t n : cell.counts.counts)
            text += strprintf(" %llu", static_cast<unsigned long long>(n));
        text += '\n';
    }
    return strprintf("%016llx",
                     static_cast<unsigned long long>(fnv1a64(text)));
}

uint64_t
splitmix(uint64_t& state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** The records of one cell, as the reference check samples them. */
struct RecordPool
{
    const workloads::Workload* workload = nullptr;
    core::Component component = core::Component::L1D;
    std::vector<const core::RunRecord*> records;
};

/** What a reference check found. */
struct Verdict
{
    std::string failure;      ///< first disagreement; fails the run
    uint32_t checked = 0;     ///< records re-simulated
    /**
     * Records that stopped on a matching state digest (convergence)
     * yet disagree with the definitional semantics. The convergence
     * arm is known to be unsound this way (README.md), so these are
     * counted and reported, not failed on.
     */
    uint32_t convergedMismatches = 0;
};

/**
 * Re-simulate records of @p pools under the definitional semantics:
 * one record, drawn by @p seed, of every (outcome, early-exit reason,
 * forked or not) stratum present, so every execution path that
 * produced a record is checked at least once. Error records are host
 * failures, counted by the caller, and are not drawn.
 */
Verdict
checkSample(const std::vector<RecordPool>& pools, uint64_t seed)
{
    using Stratum = std::tuple<core::Outcome, sim::EarlyExit, bool>;
    struct Pick
    {
        uint64_t seen = 0;
        size_t pool = 0;
        const core::RunRecord* record = nullptr;
    };
    std::map<Stratum, Pick> picks;
    uint64_t state = seed ^ 0xc0ffee;
    for (size_t p = 0; p < pools.size(); ++p) {
        for (const core::RunRecord* r : pools[p].records) {
            if (r->outcome == core::Outcome::Error)
                continue;
            // Reservoir sampling: each record of a stratum is equally
            // likely to be the one checked.
            Pick& pick = picks[{r->outcome, r->exitReason, r->forkedAt >= 0}];
            if (splitmix(state) % ++pick.seen == 0) {
                pick.pool = p;
                pick.record = r;
            }
        }
    }
    std::vector<std::vector<const core::RunRecord*>> picked(pools.size());
    for (const auto& [stratum, pick] : picks)
        picked[pick.pool].push_back(pick.record);

    Verdict verdict;
    for (size_t p = 0; p < pools.size(); ++p) {
        if (picked[p].empty())
            continue;
        verdict.checked += static_cast<uint32_t>(picked[p].size());
        for (const Mismatch& m : checkDefinitional(
                 *pools[p].workload, pools[p].component,
                 core::CampaignConfig{}.timeoutFactor, picked[p])) {
            if (m.record->exitReason == sim::EarlyExit::Converged) {
                ++verdict.convergedMismatches;
                std::fprintf(stderr, "bench_e2e: known issue, converged "
                                     "exit: %s\n",
                             m.what.c_str());
            } else if (verdict.failure.empty()) {
                verdict.failure = m.what;
            }
        }
    }
    return verdict;
}

/**
 * Reference check of a finished sweep: for every component, one cell
 * drawn by the seed is re-run as a stand-alone Campaign::run with its
 * own golden (its counts must equal the sweep's), and the records of
 * those runs are sampled by checkSample.
 */
Verdict
checkSweepCells(const Spec& spec, uint64_t seed,
                const std::vector<CellResult>& cells)
{
    uint64_t state = seed;
    std::vector<core::CampaignResult> fresh;
    std::vector<RecordPool> pools;
    fresh.reserve(core::AllComponents.size());
    for (core::Component component : core::AllComponents) {
        std::vector<const CellResult*> candidates;
        for (const CellResult& cell : cells) {
            if (cell.component == component)
                candidates.push_back(&cell);
        }
        const CellResult& cell =
            *candidates[splitmix(state) % candidates.size()];
        fresh.push_back(core::Campaign(*cell.workload,
                                       campaignConfig(spec, seed, component,
                                                      cell.faults))
                            .run(true));
        if (fresh.back().counts.counts != cell.counts.counts) {
            Verdict differs;
            differs.failure = strprintf(
                "%s %s %u-bit: Campaign::run counts differ from the "
                "sweep's",
                cell.workload->name.c_str(),
                core::componentShortName(component), cell.faults);
            return differs;
        }
        pools.push_back({cell.workload, component, {}});
        for (const core::RunRecord& r : fresh.back().runs)
            pools.back().records.push_back(&r);
    }
    return checkSample(pools, seed);
}

uint64_t
gridCells(const Spec& spec)
{
    return spec.kind == Kind::Campaigns
               ? spec.campaigns.size()
               : spec.grid.size() * core::AllComponents.size() * 3;
}

/** Fill the counts every repetition reports. */
void
tallyRuns(const Spec& spec, const std::vector<CellResult>& cells,
          uint64_t failures, RepResult& out)
{
    uint64_t completed = 0, errors = 0;
    for (const CellResult& cell : cells) {
        completed += cell.counts.total();
        errors += cell.counts.count(core::Outcome::Error);
    }
    const uint64_t attempted = gridCells(spec) * spec.injections;
    out.values["runs"] = static_cast<double>(attempted);
    out.values["errors"] = static_cast<double>(errors);
    out.values["failures"] = static_cast<double>(
        failures + (attempted > completed ? attempted - completed : 0));
    out.fingerprint = fingerprintOf(cells);
}

/** Study::goldenCycles of every grid workload on the pool lanes. */
void
warmGoldens(core::Study& study, const std::vector<std::string>& grid,
            SpanLog* spans, uint64_t parent)
{
    std::atomic<size_t> next{0};
    runLanes(std::min<size_t>(Parallelism, grid.size()),
             [&](uint32_t lane) {
                 for (;;) {
                     const size_t i = next.fetch_add(1);
                     if (i >= grid.size())
                         return;
                     ScopedSpan span(spans, "core.golden.build", parent,
                                     lane);
                     study.goldenCycles(grid[i]);
                 }
             });
}

bool
sweepFinished(const core::SweepReport& report)
{
    return !report.cancelled &&
           report.cachedCells + report.simulatedCells == report.cells;
}

// --- Untraced repetitions: the production entry points, timed from
// outside.

RepResult
untracedSweep(const Spec& spec, const RepOptions& opts)
{
    const bool procs = spec.kind == Kind::Procs;
    std::optional<TempDir> tmp;
    if (procs)
        tmp.emplace(opts.tmpRoot);
    Counter& respawns = metrics().counter("dist.respawns");
    Counter& reclaimed = metrics().counter("dist.leases_reclaimed");
    const uint64_t dist_failures = respawns.value() + reclaimed.value();
    const uint64_t goldens = core::goldenSimulationCount();
    const Usage u0 = usageNow();
    const Clock::time_point t0 = Clock::now();

    core::StudyConfig config = studyConfig(spec, opts.seed);
    if (procs) {
        config.journalDir = tmp->path() + "/journal";
        config.trace =
            std::make_shared<JsonlWriter>(tmp->path() + "/trace.jsonl");
    }
    core::Study study(config);
    warmGoldens(study, spec.grid, nullptr, 0);
    const Clock::time_point t_setup = Clock::now();
    const core::SweepReport report =
        procs ? dist::runDistributedSweep(study, distConfig())
              : study.runSweep();
    if (config.trace)
        config.trace->close();
    std::vector<CellResult> cells;
    if (sweepFinished(report))
        cells = sweepResults(study, spec);
    const Clock::time_point t_end = Clock::now();
    const Usage u1 = usageNow();

    RepResult out;
    out.values["wall_s"] = secondsBetween(t0, t_end);
    out.values["setup_s"] = secondsBetween(t0, t_setup);
    out.values["cpu_s"] = u1.cpuSeconds - u0.cpuSeconds;
    out.values["peak_rss_mb"] = u1.peakRssMb;
    tallyRuns(spec, cells,
              respawns.value() + reclaimed.value() - dist_failures, out);

    const uint64_t built = core::goldenSimulationCount() - goldens;
    if (cells.empty())
        out.check = "the sweep left cells unfinished";
    else if (built != spec.grid.size())
        out.check = strprintf("%llu golden simulations for %zu workloads",
                              static_cast<unsigned long long>(built),
                              spec.grid.size());
    if (opts.check && out.check.empty()) {
        out.check = checkSweepCells(spec, opts.seed, cells).failure;
    }
    return out;
}

RepResult
untracedCampaigns(const Spec& spec, const RepOptions& opts)
{
    const workloads::Workload& w = workloads::workloadByName(spec.grid[0]);
    const uint64_t goldens = core::goldenSimulationCount();
    const Usage u0 = usageNow();
    const Clock::time_point t0 = Clock::now();

    core::GoldenStore store;
    std::vector<std::unique_ptr<core::Campaign>> campaigns;
    for (const CampaignCell& c : spec.campaigns) {
        campaigns.push_back(std::make_unique<core::Campaign>(
            w, campaignConfig(spec, opts.seed, c.component, c.faults),
            store));
    }
    campaigns.front()->goldenCycles();
    const Clock::time_point t_setup = Clock::now();
    std::vector<core::CampaignResult> results;
    for (const auto& campaign : campaigns)
        results.push_back(campaign->run(true));
    std::vector<CellResult> cells;
    for (size_t i = 0; i < results.size(); ++i) {
        cells.push_back({&w, spec.campaigns[i].component,
                         spec.campaigns[i].faults, results[i].counts});
    }
    const Clock::time_point t_end = Clock::now();
    const Usage u1 = usageNow();

    RepResult out;
    out.values["wall_s"] = secondsBetween(t0, t_end);
    out.values["setup_s"] = secondsBetween(t0, t_setup);
    out.values["cpu_s"] = u1.cpuSeconds - u0.cpuSeconds;
    out.values["peak_rss_mb"] = u1.peakRssMb;
    tallyRuns(spec, cells, 0, out);

    const uint64_t built = core::goldenSimulationCount() - goldens;
    if (built != 1) {
        out.check = strprintf("%llu golden simulations for one workload",
                              static_cast<unsigned long long>(built));
    } else if (opts.check) {
        std::vector<RecordPool> pools;
        for (size_t i = 0; i < results.size(); ++i) {
            pools.push_back({&w, spec.campaigns[i].component, {}});
            for (const core::RunRecord& r : results[i].runs)
                pools.back().records.push_back(&r);
        }
        out.check = checkSample(pools, opts.seed).failure;
    }
    return out;
}

// --- Traced repetitions: the same work through the layers' public
// calls, one span per call.

/** What a traced drive leaves for the layer metrics and probes. The
 *  drive's objects stay alive with it: the golden artifacts the probes
 *  read live in their golden stores. */
struct TracedDrive
{
    std::unique_ptr<core::Study> study;
    std::vector<std::unique_ptr<core::SweepCell>> sweepCells;
    std::unique_ptr<core::GoldenStore> store;
    std::vector<std::unique_ptr<core::Campaign>> campaigns;

    SpanLog spans;
    std::vector<CellResult> cells;
    std::mutex recordsMutex;              ///< guards records
    std::vector<CellRecords> records;     ///< per cell
    std::vector<RecordPool> pools;        ///< per cell, for the check
    std::vector<const core::GoldenArtifacts*> goldens;  ///< per workload
    double wallSeconds = 0;
    uint64_t goldenCycles = 0;            ///< summed over grid workloads
    std::map<std::string, uint64_t> counters;   ///< deltas over the drive
    std::string problem;
};

/** Collect every record an Execution completes into @p into. */
void
observe(core::Campaign::Execution& exec, CellRecords& into,
        std::mutex& mutex)
{
    exec.setRunObserver([&into, &mutex](const core::RunRecord& r) {
        std::lock_guard<std::mutex> lock(mutex);
        into.records.push_back(r);
    });
}

/**
 * Run (cell, cohort) tasks in order on the pool lanes, the way
 * Study::runSweep's pass 3 and Campaign::run's pool do. @p on_last is
 * called by the lane whose runCohort retired a cell's last run.
 */
template <class Task, class OnLast>
void
drainTasks(SpanLog& spans, uint64_t parent, const std::vector<Task>& tasks,
           OnLast on_last)
{
    ScopedSpan pool(&spans, "e2e.pool", parent, 0);
    std::atomic<size_t> next{0};
    runLanes(std::min<size_t>(Parallelism, tasks.size()),
             [&](uint32_t lane) {
                 for (;;) {
                     const size_t t = next.fetch_add(1);
                     if (t >= tasks.size())
                         return;
                     core::Campaign::Execution::CohortOutcome outcome;
                     {
                         ScopedSpan span(&spans,
                                         "core.campaign.run_cohort",
                                         pool.id(), lane);
                         outcome = tasks[t].exec->runCohort(
                             *tasks[t].cohort);
                     }
                     if (outcome.retiredLast)
                         on_last(tasks[t], pool.id(), lane);
                 }
             });
}

struct SweepTask
{
    core::SweepCell* cell;
    core::Campaign::Execution* exec;
    const core::Campaign::Execution::Cohort* cohort;
};

void
tracedSweep(const Spec& spec, const RepOptions& opts,
            const std::string& dir, TracedDrive& drive)
{
    core::StudyConfig config = studyConfig(spec, opts.seed);
    if (spec.kind == Kind::Procs) {
        config.journalDir = dir + "/journal";
        config.trace = std::make_shared<JsonlWriter>(dir + "/trace.jsonl");
    }
    SpanLog& spans = drive.spans;
    std::unique_ptr<core::Study>& study = drive.study;
    std::vector<std::unique_ptr<core::SweepCell>>& cells = drive.sweepCells;
    std::atomic<size_t> installed{0};
    const Clock::time_point t0 = Clock::now();
    {
        ScopedSpan root(&spans, "e2e.rep", 0, 0);
        {
            ScopedSpan span(&spans, "core.study.construct", root.id(), 0);
            study = std::make_unique<core::Study>(config);
        }
        warmGoldens(*study, spec.grid, &spans, root.id());
        core::SweepReport report;
        std::vector<std::string> cached;
        {
            ScopedSpan span(&spans, "core.plan", root.id(), 0);
            cells = study->prepareSweepCells(report, cached, Parallelism);
        }
        drive.records.resize(cells.size());
        std::vector<SweepTask> tasks;
        for (size_t i = 0; i < cells.size(); ++i) {
            drive.records[i].header = cells[i]->campaign->journalHeader();
            observe(*cells[i]->exec, drive.records[i], drive.recordsMutex);
            for (const auto& cohort : cells[i]->cohorts)
                tasks.push_back({cells[i].get(), cells[i]->exec.get(),
                                 &cohort});
        }
        drainTasks(spans, root.id(), tasks,
                   [&](const SweepTask& task, uint64_t parent,
                       uint32_t lane) {
                       ScopedSpan span(&spans, "core.campaign.finalize",
                                       parent, lane);
                       study->installCellResult(*task.cell);
                       installed.fetch_add(1);
                   });
        if (config.trace)
            config.trace->close();
        if (installed.load() == gridCells(spec) && cached.empty())
            drive.cells = sweepResults(*study, spec);
    }
    drive.wallSeconds = secondsBetween(t0, Clock::now());
    if (drive.cells.empty())
        drive.problem = "the traced sweep left cells unfinished";

    for (const std::string& name : spec.grid)
        drive.goldenCycles += study->goldenCycles(name);
    const workloads::Workload* last = nullptr;
    for (size_t i = 0; i < cells.size(); ++i) {
        drive.pools.push_back({cells[i]->workload, cells[i]->component, {}});
        for (const core::RunRecord& r : drive.records[i].records)
            drive.pools.back().records.push_back(&r);
        if (cells[i]->workload != last) {
            last = cells[i]->workload;
            drive.goldens.push_back(
                &cells[i]->campaign->goldenArtifacts());
        }
    }
}

struct CampaignTask
{
    core::Campaign::Execution* exec;
    const core::Campaign::Execution::Cohort* cohort;
};

void
tracedCampaigns(const Spec& spec, const RepOptions& opts,
                TracedDrive& drive)
{
    const workloads::Workload& w = workloads::workloadByName(spec.grid[0]);
    SpanLog& spans = drive.spans;
    std::vector<std::unique_ptr<core::Campaign>>& campaigns =
        drive.campaigns;
    drive.records.resize(spec.campaigns.size());
    const Clock::time_point t0 = Clock::now();
    {
        ScopedSpan root(&spans, "e2e.rep", 0, 0);
        {
            ScopedSpan span(&spans, "core.campaign.construct", root.id(),
                            0);
            drive.store = std::make_unique<core::GoldenStore>();
            for (const CampaignCell& c : spec.campaigns) {
                campaigns.push_back(std::make_unique<core::Campaign>(
                    w, campaignConfig(spec, opts.seed, c.component,
                                      c.faults),
                    *drive.store));
            }
        }
        {
            ScopedSpan span(&spans, "core.golden.build", root.id(), 0);
            campaigns.front()->goldenCycles();
        }
        // Campaign::run, one campaign after another: prepare and plan
        // for the pool's width, drain the cohorts, finalize.
        for (size_t i = 0; i < campaigns.size(); ++i) {
            std::unique_ptr<core::Campaign::Execution> exec;
            std::vector<core::Campaign::Execution::Cohort> cohorts;
            {
                ScopedSpan span(&spans, "core.plan", root.id(), 0);
                exec = campaigns[i]->prepare(false);
                cohorts = exec->planCohorts(Parallelism);
            }
            drive.records[i].header = campaigns[i]->journalHeader();
            observe(*exec, drive.records[i], drive.recordsMutex);
            std::vector<CampaignTask> tasks;
            for (const auto& cohort : cohorts)
                tasks.push_back({exec.get(), &cohort});
            drainTasks(spans, root.id(), tasks,
                       [](const CampaignTask&, uint64_t, uint32_t) {});
            ScopedSpan span(&spans, "core.campaign.finalize", root.id(), 0);
            const core::CampaignResult result = exec->finalize(false);
            drive.cells.push_back({&w, spec.campaigns[i].component,
                                   spec.campaigns[i].faults,
                                   result.counts});
        }
    }
    drive.wallSeconds = secondsBetween(t0, Clock::now());
    drive.goldenCycles = campaigns.front()->goldenCycles();
    for (size_t i = 0; i < campaigns.size(); ++i) {
        drive.pools.push_back({&w, spec.campaigns[i].component, {}});
        for (const core::RunRecord& r : drive.records[i].records)
            drive.pools.back().records.push_back(&r);
    }
    drive.goldens.push_back(&campaigns.front()->goldenArtifacts());
}

/** Per-layer metrics from the spans and counter deltas of a drive. */
void
layerMetrics(const TracedDrive& drive, RepResult& out)
{
    Values& v = out.values;
    const SpanLog& spans = drive.spans;
    auto counter = [&](const char* name) {
        auto it = drive.counters.find(name);
        return it == drive.counters.end()
                   ? 0.0
                   : static_cast<double>(it->second);
    };

    v["core.golden.build_s"] = spans.total("core.golden.build");
    v["core.golden.cycles_per_s"] =
        static_cast<double>(drive.goldenCycles) / v["core.golden.build_s"];
    v["core.golden.sims"] = counter("golden.simulations");
    v["core.golden.wait_s"] = counter("golden.wait_us") * 1e-6;
    v["core.plan_s"] = spans.total("core.plan");

    std::vector<double> cohort_ms;
    double cohort_s = 0;
    for (const Span* s : spans.named("core.campaign.run_cohort")) {
        cohort_s += spans.selfSeconds(*s);
        cohort_ms.push_back(s->seconds() * 1e3);
    }
    v["core.campaign.cohort_s"] = cohort_s;
    v["core.campaign.cohort_ms.p50"] = quantile(cohort_ms, 0.5);
    v["core.campaign.finalize_s"] = spans.total("core.campaign.finalize");

    // Pool lanes: busy while a cohort or finalize span is open on
    // them; the tail runs from the last cohort claimed to the last
    // span closed.
    double capacity = 0, busy = 0, tail = 0;
    for (const Span* pool : spans.named("e2e.pool")) {
        capacity += Parallelism * pool->seconds();
        Clock::time_point last_claim = pool->start;
        Clock::time_point last_end = pool->start;
        for (const Span& s : spans.spans()) {
            if (s.parent != pool->id)
                continue;
            busy += s.seconds();
            if (s.name == "core.campaign.run_cohort")
                last_claim = std::max(last_claim, s.start);
            last_end = std::max(last_end, s.end);
        }
        tail += secondsBetween(last_claim, last_end);
    }
    v["core.study.idle_share"] = capacity > 0 ? 1.0 - busy / capacity : 0;
    v["core.study.tail_s"] = tail;

    const double runs = counter("campaign.runs_simulated");
    const double cohorts = counter("campaign.cohorts");
    v["core.campaign.runs"] = runs;
    v["core.campaign.cohorts"] = cohorts;
    v["core.campaign.runs_per_cohort"] = cohorts > 0 ? runs / cohorts : 0;
    v["core.campaign.cycles_private"] = counter("campaign.cycles_simulated");
    v["core.campaign.cycles_cursor"] = counter("campaign.cursor_cycles");
    v["core.campaign.cycles_overlay"] = counter("campaign.overlay_cycles");
    v["core.campaign.cycles_saved"] = counter("campaign.cycles_saved");
    v["core.campaign.forks"] = counter("campaign.forks");
    v["core.campaign.fork_ratio"] =
        runs > 0 ? counter("campaign.forks") / runs : 0;
    v["core.campaign.never_forked"] = counter("campaign.never_forked");
    v["core.campaign.exit_dead_fault"] = counter("campaign.exit.dead_fault");
    v["core.campaign.exit_converged"] = counter("campaign.exit.converged");
    v["core.campaign.snapshot_bytes"] = counter("snapshot.bytes_copied");
    v["core.campaign.decode_hits"] = counter("campaign.decode_hits");
    v["core.campaign.sim_cycles_per_s"] =
        (v["core.campaign.cycles_private"] +
         v["core.campaign.cycles_cursor"]) /
        cohort_s;
}

RepResult
traced(const Spec& spec, const RepOptions& opts)
{
    TempDir tmp(opts.tmpRoot);
    TracedDrive drive;
    const std::map<std::string, uint64_t> before = counterValues();
    if (spec.kind == Kind::Campaigns)
        tracedCampaigns(spec, opts, drive);
    else
        tracedSweep(spec, opts, tmp.path(), drive);
    for (const auto& [name, value] : counterValues()) {
        auto it = before.find(name);
        drive.counters[name] = value - (it == before.end() ? 0 : it->second);
    }

    RepResult out;
    out.values["wall_s"] = drive.wallSeconds;
    tallyRuns(spec, drive.cells, 0, out);
    layerMetrics(drive, out);
    if (!opts.spansOut.empty() &&
        !drive.spans.writeJsonl(opts.spansOut,
                                strprintf("%s-%d", opts.workload.c_str(),
                                          static_cast<int>(::getpid())))) {
        warn("cannot write spans to '%s'", opts.spansOut.c_str());
    }

    std::vector<const workloads::Workload*> programs;
    for (const std::string& name : spec.grid)
        programs.push_back(&workloads::workloadByName(name));
    probeSim(programs, opts.smoke, out.values);
    std::string problem = drive.problem;
    const std::string wire =
        probeWire(drive.records, drive.goldens, tmp.path(), out.values);
    if (problem.empty())
        problem = wire;
    const Verdict verdict = checkSample(drive.pools, opts.seed);
    out.values["core.campaign.reference_checked"] = verdict.checked;
    out.values["core.campaign.converged_mismatches"] =
        verdict.convergedMismatches;
    if (problem.empty())
        problem = verdict.failure;
    out.check = problem;
    return out;
}

} // namespace

uint64_t
batchSeed(uint64_t seed, uint64_t batch)
{
    if (batch == 0)
        return seed;
    uint64_t state = seed;
    uint64_t mixed = splitmix(state) + batch;
    return splitmix(mixed);
}

double
nominalRepSeconds(const std::string& workload)
{
    static const std::map<std::string, double> seconds = {
        {"sweep_mixed", 6.2},
        {"sweep_procs", 6.6},
        {"pilot_all15", 2.8},
        {"campaign_deep", 5.0},
    };
    auto it = seconds.find(workload);
    return it == seconds.end() ? 0.0 : it->second;
}

RepResult
runRep(const RepOptions& opts)
{
    const Spec spec = specFor(opts.workload, opts.smoke);
    if (opts.traced)
        return traced(spec, opts);
    if (spec.kind == Kind::Campaigns)
        return untracedCampaigns(spec, opts);
    return untracedSweep(spec, opts);
}

} // namespace e2e
