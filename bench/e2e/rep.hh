/**
 * @file
 * One repetition of a bench_e2e workload, run in its own process.
 *
 * An untraced repetition times a production entry point from outside
 * (Study::runSweep, dist::runDistributedSweep or Campaign::run). A
 * traced repetition drives the same work through the layers' public
 * calls at the same parallelism, records a span around each call and
 * then probes the layers on the records it produced. Both return the
 * FNV-1a fingerprint of the per-cell outcome counts, so the parent can
 * hold every repetition, traced or not, to the same answer.
 */

#ifndef MBUSIM_BENCH_E2E_REP_HH
#define MBUSIM_BENCH_E2E_REP_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/** Worker threads (in-process) or worker processes (dist) per run. */
constexpr uint32_t Parallelism = 2;

/**
 * Wall seconds one untraced repetition of @p workload takes, checks
 * included, on a 4-core AMD EPYC host (0 for an unknown workload). It
 * sizes a run's input batches to its --seconds without depending on
 * the speed of the code under test.
 */
double nominalRepSeconds(const std::string& workload);

/** Campaign seed of input batch @p batch of a run: batch 0 is @p seed
 *  itself, the others are drawn from it, so one seed always names the
 *  same batches. */
uint64_t batchSeed(uint64_t seed, uint64_t batch);

struct RepOptions
{
    std::string workload;
    uint64_t seed = 0x5eed;
    bool smoke = false;       ///< 2 grid workloads, 2 injections
    bool traced = false;
    bool check = false;       ///< run the reference check afterwards
    std::string spansOut;     ///< traced: append spans here ("" = keep)
    std::string tmpRoot;      ///< parent of the repetition's temp dir
};

struct RepResult
{
    /** Timings and counts by metric name; traced repetitions add the
     *  per-layer metrics. */
    std::map<std::string, double> values;
    std::string fingerprint;   ///< 16 hex digits
    /** Empty when every check passed, else the first failure. */
    std::string check;
};

RepResult runRep(const RepOptions& opts);

} // namespace e2e

#endif // MBUSIM_BENCH_E2E_REP_HH
