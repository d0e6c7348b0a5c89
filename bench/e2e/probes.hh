/**
 * @file
 * Layer probes of the traced repetition: each times one layer's public
 * calls in isolation, on the programs and run records the repetition
 * just produced, outside every timed interval of the drive itself.
 */

#ifndef MBUSIM_BENCH_E2E_PROBES_HH
#define MBUSIM_BENCH_E2E_PROBES_HH

#include <map>
#include <string>
#include <vector>

#include "core/campaign.hh"
#include "core/golden_store.hh"
#include "workloads/workload.hh"

namespace e2e {

using Values = std::map<std::string, double>;

/** Linear-interpolated quantile of @p v (sorted in place). */
double quantile(std::vector<double>& v, double q);

/**
 * sim.* and workloads.*: Simulator::run(0) speed and simulated
 * statistics per program, the snapshot calls at the golden midpoint,
 * and Workload::assemble.
 */
void probeSim(const std::vector<const mbusim::workloads::Workload*>& programs,
              bool smoke, Values& out);

/** One cell's run records plus the journal header naming the cell. */
struct CellRecords
{
    std::string header;
    std::vector<mbusim::core::RunRecord> records;
};

/**
 * dist.* and util.journal.*: the record frame round trip over a
 * socketpair, golden-wire encode/decode per workload, Journal::append
 * of every record into a per-cell shard under @p dir, and
 * mergeJournalShards on up to 8 of those cells. Returns "" or the
 * first round trip that failed.
 */
std::string probeWire(
    const std::vector<CellRecords>& cells,
    const std::vector<const mbusim::core::GoldenArtifacts*>& goldens,
    const std::string& dir, Values& out);

/** A run record the definitional semantics disagrees with. */
struct Mismatch
{
    const mbusim::core::RunRecord* record;
    std::string what;
};

/**
 * The definitional semantics: re-simulate each of @p records from
 * cycle 0 on a fresh simulator, no checkpoint, cursor or early exit,
 * and compare outcome and cycle count with the record.
 */
std::vector<Mismatch> checkDefinitional(
    const mbusim::workloads::Workload& workload,
    mbusim::core::Component component, uint32_t timeout_factor,
    const std::vector<const mbusim::core::RunRecord*>& records);

} // namespace e2e

#endif // MBUSIM_BENCH_E2E_PROBES_HH
