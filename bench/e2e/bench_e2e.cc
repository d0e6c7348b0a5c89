/**
 * @file
 * bench_e2e: mbusim's end-to-end benchmark of record (README.md).
 *
 *   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--reps N] [--smoke] [--record FILE] [--spans-out FILE]
 *
 * Every repetition runs in a fresh process: this binary re-executed
 * with --rep. With --trace 0 a run measures a fixed number of input
 * batches, each an untraced repetition with its own campaign seed, and
 * reports the end-to-end metrics as medians over batches. With
 * --trace 1 it pairs an untraced and a traced repetition of the seed
 * itself and reports the per-layer metrics. Each metric is printed as
 * `name value unit` with quartiles and sample count. The last line is
 * one JSON object with `correct`, `attempted`, `failed` and `metrics`.
 * `correct` holds when the repetitions of each batch agree on their
 * outcome fingerprint, every check passed, and the exact per-layer
 * metrics repeated exactly. --record appends the full result, samples
 * and fingerprints included, as one JSON line for summarize.py.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/log.hh"

#include "probes.hh"
#include "rep.hh"

#ifndef BENCH_E2E_BUILD_TYPE
#error "BENCH_E2E_BUILD_TYPE must name the CMake build type"
#endif

extern char** environ;

namespace {

using namespace e2e;
using mbusim::strprintf;
using Clock = std::chrono::steady_clock;

struct Metric
{
    const char* name;
    const char* unit;
    bool higherIsBetter;
    bool exact;   ///< deterministic: must repeat exactly
};

const std::vector<Metric> EndToEnd = {
    {"wall_s", "s", false, false},
    {"setup_s", "s", false, false},
    {"runs_per_s", "runs/s", true, false},
    {"cpu_s", "s", false, false},
    {"peak_rss_mb", "MiB", false, false},
};

const std::vector<Metric> PerLayer = {
    {"sim.cycles_per_s", "cycles/s", true, false},
    {"sim.checkpoint_us", "us", false, false},
    {"sim.delta_checkpoint_us", "us", false, false},
    {"sim.restore_us", "us", false, false},
    {"sim.golden_cycles", "cycles", false, true},
    {"sim.ipc", "ratio", true, true},
    {"sim.cache_accesses_per_cycle", "accesses/cycle", false, true},
    {"sim.tlb_accesses_per_cycle", "accesses/cycle", false, true},
    {"workloads.assemble_ms", "ms", false, false},
    {"core.golden.build_s", "s", false, false},
    {"core.golden.cycles_per_s", "cycles/s", true, false},
    {"core.golden.sims", "count", false, true},
    {"core.golden.wait_s", "s", false, false},
    {"core.plan_s", "s", false, false},
    {"core.study.idle_share", "ratio", false, false},
    {"core.study.tail_s", "s", false, false},
    {"core.campaign.cohort_s", "s", false, false},
    {"core.campaign.cohort_ms.p50", "ms", false, false},
    {"core.campaign.finalize_s", "s", false, false},
    {"core.campaign.runs", "count", true, true},
    {"core.campaign.cohorts", "count", false, true},
    {"core.campaign.runs_per_cohort", "runs", true, true},
    {"core.campaign.cycles_private", "cycles", false, true},
    {"core.campaign.cycles_cursor", "cycles", false, true},
    {"core.campaign.cycles_overlay", "cycles", true, true},
    {"core.campaign.cycles_saved", "cycles", true, true},
    {"core.campaign.forks", "count", false, true},
    {"core.campaign.fork_ratio", "ratio", false, true},
    {"core.campaign.never_forked", "count", true, true},
    {"core.campaign.exit_dead_fault", "count", true, true},
    {"core.campaign.exit_converged", "count", true, true},
    {"core.campaign.snapshot_bytes", "bytes", false, true},
    {"core.campaign.decode_hits", "count", true, true},
    {"core.campaign.sim_cycles_per_s", "cycles/s", true, false},
    {"core.campaign.reference_checked", "count", true, true},
    {"core.campaign.converged_mismatches", "count", false, true},
    {"dist.rec_frame_us.p50", "us", false, false},
    {"dist.rec_frame_us.p90", "us", false, false},
    {"dist.golden_wire_ms", "ms", false, false},
    {"dist.golden_blob_kb", "KiB", false, true},
    {"util.journal.append_us.p50", "us", false, false},
    {"util.journal.append_us.p90", "us", false, false},
    {"util.journal.merge_ms", "ms", false, false},
    {"trace.overhead", "ratio", false, false},
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "bench_e2e: %s\n"
                 "usage: bench_e2e --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "                 [--reps N] [--smoke] [--record FILE] "
                 "[--spans-out FILE]\n",
                 why);
    std::exit(2);
}

uint64_t
parseNumber(const char* flag, const std::string& text)
{
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (text.empty() || text[0] == '-' || errno != 0 || *end != '\0')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

struct Args
{
    RepOptions rep;
    bool child = false;      ///< --rep: run one repetition, print it
    double seconds = 10;
    bool trace = false;
    uint64_t reps = 0;       ///< batches (untraced) or pairs (traced);
                             ///< 0 = sized by --seconds
    std::string record;
};

Args
parseArgs(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            args.rep.workload = next();
        } else if (arg == "--seed") {
            args.rep.seed = parseNumber("--seed", next());
        } else if (arg == "--seconds") {
            args.seconds =
                static_cast<double>(parseNumber("--seconds", next()));
        } else if (arg == "--trace") {
            const std::string v = next();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            args.trace = v == "1";
        } else if (arg == "--reps") {
            args.reps = parseNumber("--reps", next());
        } else if (arg == "--smoke") {
            args.rep.smoke = true;
        } else if (arg == "--record") {
            args.record = next();
        } else if (arg == "--spans-out") {
            args.rep.spansOut = next();
        } else if (arg == "--rep") {
            args.child = true;
        } else if (arg == "--traced") {
            args.rep.traced = true;
        } else if (arg == "--check") {
            args.rep.check = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (nominalRepSeconds(args.rep.workload) == 0)
        usage(("unknown workload '" + args.rep.workload + "'").c_str());
    const char* tmp = std::getenv("TMPDIR");
    args.rep.tmpRoot = tmp && *tmp ? tmp : "/tmp";
    return args;
}

/** Drop every MBUSIM_* knob so no shell setting can steer a run. */
void
clearMbusimEnvironment()
{
    std::vector<std::string> names;
    for (char** e = environ; *e; ++e) {
        const std::string entry = *e;
        if (entry.rfind("MBUSIM_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string& name : names)
        ::unsetenv(name.c_str());
}

int
childMain(const Args& args)
{
    const RepResult r = runRep(args.rep);
    std::printf("rep fingerprint=%s", r.fingerprint.c_str());
    for (const auto& [name, value] : r.values)
        std::printf(" %s=%.17g", name.c_str(), value);
    // The check text may hold spaces, so it ends the line.
    std::printf(" check=%s\n", r.check.c_str());
    return 0;
}

struct Rep
{
    size_t batch = 0;
    bool traced = false;
    std::map<std::string, double> values;
    std::string fingerprint;
    std::string check;
};

/** Run one repetition in a fresh process and parse its report. */
Rep
spawnRep(const Args& args, size_t batch, bool traced, bool check)
{
    std::vector<std::string> argv = {
        "bench_e2e", "--rep", "--workload", args.rep.workload, "--seed",
        std::to_string(batchSeed(args.rep.seed, batch))};
    if (args.rep.smoke)
        argv.push_back("--smoke");
    if (traced)
        argv.push_back("--traced");
    if (check)
        argv.push_back("--check");
    if (traced && !args.rep.spansOut.empty()) {
        argv.push_back("--spans-out");
        argv.push_back(args.rep.spansOut);
    }
    std::vector<char*> cargv;
    for (std::string& a : argv)
        cargv.push_back(a.data());
    cargv.push_back(nullptr);

    int fds[2];
    if (::pipe(fds) != 0) {
        std::perror("bench_e2e: pipe");
        std::exit(1);
    }
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("bench_e2e: fork");
        std::exit(1);
    }
    if (pid == 0) {
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[0]);
        ::close(fds[1]);
        ::execv("/proc/self/exe", cargv.data());
        std::perror("bench_e2e: exec");
        ::_exit(127);
    }
    ::close(fds[1]);
    std::string output;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n > 0) {
            output.append(buf, static_cast<size_t>(n));
        } else if (n == 0 || errno != EINTR) {
            break;
        }
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "bench_e2e: a %s repetition of %s failed "
                             "(status %d)\n",
                     traced ? "traced" : "untraced",
                     args.rep.workload.c_str(), status);
        std::exit(1);
    }

    Rep rep;
    rep.batch = batch;
    rep.traced = traced;
    const size_t at = output.rfind("rep fingerprint=");
    if (at == std::string::npos) {
        std::fprintf(stderr, "bench_e2e: a repetition printed no "
                             "report\n");
        std::exit(1);
    }
    std::string line = output.substr(at + 4);
    line = line.substr(0, line.find('\n'));
    const size_t check_at = line.find(" check=");
    if (check_at == std::string::npos) {
        std::fprintf(stderr, "bench_e2e: a repetition report is cut "
                             "short\n");
        std::exit(1);
    }
    rep.check = line.substr(check_at + 7);
    std::istringstream fields(line.substr(0, check_at));
    std::string field;
    while (fields >> field) {
        const size_t eq = field.find('=');
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        if (key == "fingerprint")
            rep.fingerprint = value;
        else
            rep.values[key] = std::strtod(value.c_str(), nullptr);
    }
    return rep;
}

double
median(std::vector<double> v)
{
    return quantile(v, 0.5);
}

struct Aggregate
{
    const Metric* metric;
    std::vector<double> samples;
    double value = 0, q1 = 0, q3 = 0;
};

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int
parentMain(const Args& args)
{
    if (args.rep.spansOut.size() > 0) {
        // One spans file per invocation: truncate what an earlier run
        // left there.
        if (std::FILE* f = std::fopen(args.rep.spansOut.c_str(), "w"))
            std::fclose(f);
    }

    // An untraced run measures `batches` input batches, each with its
    // own fault sample, and repeats the whole cycle while time is left;
    // a batch's value is its median over cycles and the metric is the
    // median over batches. One fault sample alone carries several
    // percent of seed-to-seed variation in private simulation work, so
    // the batches are what make a run steady across seeds. A traced
    // run pairs an untraced and a traced repetition of batch 0.
    const size_t batches =
        args.trace ? 1
        : args.reps != 0
            ? args.reps
            : std::max<size_t>(1, std::lround(
                                      args.seconds /
                                      nominalRepSeconds(args.rep.workload)));
    // With --reps the shape is fixed: that many batches once, or that
    // many traced pairs.
    const uint64_t fixed_cycles =
        args.reps == 0 ? 0 : args.trace ? args.reps : 1;
    std::vector<Rep> reps;
    std::vector<double> cycle_seconds;
    const Clock::time_point start = Clock::now();
    for (uint64_t cycle = 0;; ++cycle) {
        const Clock::time_point t0 = Clock::now();
        for (size_t b = 0; b < batches; ++b) {
            reps.push_back(spawnRep(args, b, false, cycle == 0));
            if (args.trace)
                reps.push_back(spawnRep(args, b, true, false));
        }
        cycle_seconds.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
        if (fixed_cycles != 0) {
            if (cycle + 1 == fixed_cycles)
                break;
            continue;
        }
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (elapsed + median(cycle_seconds) > args.seconds)
            break;
    }

    std::vector<std::string> problems;
    std::map<size_t, std::string> fingerprints;   // by batch
    uint64_t attempted = 0, failed = 0;
    for (const Rep& rep : reps) {
        attempted += static_cast<uint64_t>(rep.values.at("runs"));
        failed += static_cast<uint64_t>(rep.values.at("errors") +
                                        rep.values.at("failures"));
        const std::string& first =
            fingerprints.emplace(rep.batch, rep.fingerprint).first->second;
        if (rep.fingerprint != first) {
            problems.push_back(strprintf(
                "batch %zu: fingerprint %s of a %s repetition differs "
                "from %s",
                rep.batch, rep.fingerprint.c_str(),
                rep.traced ? "traced" : "untraced", first.c_str()));
        }
        if (!rep.check.empty())
            problems.push_back(rep.check);
    }

    auto value = [&](const Rep& rep, const Metric& m) {
        if (std::string(m.name) == "runs_per_s") {
            return rep.values.at("runs") /
                   (rep.values.at("wall_s") - rep.values.at("setup_s"));
        }
        auto it = rep.values.find(m.name);
        if (it == rep.values.end()) {
            problems.push_back(std::string("no value for ") + m.name);
            return 0.0;
        }
        return it->second;
    };
    std::vector<Aggregate> rows;
    if (!args.trace) {
        for (const Metric& m : EndToEnd) {
            Aggregate a{&m, {}};
            for (size_t b = 0; b < batches; ++b) {
                std::vector<double> cycles;
                for (const Rep& rep : reps) {
                    if (rep.batch == b)
                        cycles.push_back(value(rep, m));
                }
                a.samples.push_back(median(cycles));
            }
            rows.push_back(std::move(a));
        }
    } else {
        std::vector<double> plain, traced;
        for (const Rep& rep : reps) {
            (rep.traced ? traced : plain)
                .push_back(rep.values.at("wall_s"));
        }
        for (const Metric& m : PerLayer) {
            Aggregate a{&m, {}};
            if (std::string(m.name) == "trace.overhead") {
                a.samples = {median(traced) / median(plain) - 1.0};
            } else {
                for (const Rep& rep : reps) {
                    if (rep.traced)
                        a.samples.push_back(value(rep, m));
                }
            }
            for (double v : a.samples) {
                if (m.exact && v != a.samples.front())
                    problems.push_back(std::string(m.name) +
                                       " did not repeat exactly");
            }
            rows.push_back(std::move(a));
        }
    }
    for (Aggregate& a : rows) {
        for (double& v : a.samples) {
            if (!std::isfinite(v)) {
                problems.push_back(std::string(a.metric->name) +
                                   " is not finite");
                v = 0;
            }
        }
        std::vector<double> s = a.samples;
        a.value = quantile(s, 0.5);
        a.q1 = quantile(s, 0.25);
        a.q3 = quantile(s, 0.75);
    }

    const bool correct = problems.empty();
    for (const std::string& p : problems)
        std::fprintf(stderr, "bench_e2e: FAILED CHECK: %s\n", p.c_str());

    std::printf("# %s seed=%llu trace=%d%s: %zu repetitions of %zu "
                "input batches in %.1f s, fingerprint %s, %s\n",
                args.rep.workload.c_str(),
                static_cast<unsigned long long>(args.rep.seed),
                args.trace ? 1 : 0, args.rep.smoke ? " smoke" : "",
                reps.size(), batches,
                std::chrono::duration<double>(Clock::now() - start)
                    .count(),
                reps.front().fingerprint.c_str(),
                correct ? "outputs correct" : "OUTPUTS WRONG");
    for (const Aggregate& a : rows) {
        std::printf("%-34s %14.6g %-15s q1=%.6g q3=%.6g n=%zu%s\n",
                    a.metric->name, a.value, a.metric->unit, a.q1, a.q3,
                    a.samples.size(), a.metric->exact ? " exact" : "");
    }

    std::string metrics, detail;
    for (const Aggregate& a : rows) {
        const std::string key = strprintf("\"%s\"", a.metric->name);
        metrics += strprintf("%s%s: {\"value\": %s, \"unit\": \"%s\"}",
                             metrics.empty() ? "" : ", ", key.c_str(),
                             jsonNumber(a.value).c_str(), a.metric->unit);
        std::string samples;
        for (double v : a.samples)
            samples += (samples.empty() ? "" : ", ") + jsonNumber(v);
        detail += strprintf(
            "%s%s: {\"value\": %s, \"unit\": \"%s\", \"better\": \"%s\", "
            "\"exact\": %s, \"q1\": %s, \"q3\": %s, \"n\": %zu, "
            "\"samples\": [%s]}",
            detail.empty() ? "" : ", ", key.c_str(),
            jsonNumber(a.value).c_str(), a.metric->unit,
            a.metric->higherIsBetter ? "higher" : "lower",
            a.metric->exact ? "true" : "false", jsonNumber(a.q1).c_str(),
            jsonNumber(a.q3).c_str(), a.samples.size(), samples.c_str());
    }

    if (!args.record.empty()) {
        std::FILE* f = std::fopen(args.record.c_str(), "a");
        if (!f) {
            std::fprintf(stderr, "bench_e2e: cannot append to '%s'\n",
                         args.record.c_str());
            return 1;
        }
        std::string batch_fingerprints;
        for (const auto& [batch, fp] : fingerprints) {
            batch_fingerprints +=
                strprintf("%s\"%s\"", batch ? ", " : "", fp.c_str());
        }
        std::fprintf(
            f,
            "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
            "\"smoke\": %s, \"nproc\": %u, \"build_type\": \"%s\", "
            "\"reps\": %zu, \"fingerprints\": [%s], \"correct\": %s, "
            "\"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
            args.rep.workload.c_str(),
            static_cast<unsigned long long>(args.rep.seed),
            args.trace ? 1 : 0, args.rep.smoke ? "true" : "false",
            std::thread::hardware_concurrency(), BENCH_E2E_BUILD_TYPE,
            reps.size(), batch_fingerprints.c_str(),
            correct ? "true" : "false",
            static_cast<unsigned long long>(attempted),
            static_cast<unsigned long long>(failed), detail.c_str());
        std::fclose(f);
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::string build_type = BENCH_E2E_BUILD_TYPE;
    if (build_type != "Release" && build_type != "RelWithDebInfo") {
        std::fprintf(stderr,
                     "bench_e2e: refusing to time a '%s' build; configure "
                     "with -DCMAKE_BUILD_TYPE=RelWithDebInfo or Release\n",
                     build_type.c_str());
        return 2;
    }
    clearMbusimEnvironment();
    const Args args = parseArgs(argc, argv);
    return args.child ? childMain(args) : parentMain(args);
}
