#include "probes.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "core/classification.hh"
#include "core/golden_wire.hh"
#include "dist/protocol.hh"
#include "sim/simulator.hh"
#include "util/journal.hh"
#include "util/log.hh"

namespace e2e {

using namespace mbusim;
using Clock = std::chrono::steady_clock;

namespace {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
mean(const std::vector<double>& v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/** Snapshot calls per program at the golden midpoint. */
constexpr int SnapshotReps = 5;
/** Cycles run between two delta checkpoints: roughly one gap between
 *  consecutive injection cycles of a 200-run cohort. */
constexpr uint64_t DeltaGap = 1000;
/** Cells whose journal shard the probe merges. */
constexpr size_t MergedCells = 8;

} // namespace

double
quantile(std::vector<double>& v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double at = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(at);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (at - static_cast<double>(lo));
}

void
probeSim(const std::vector<const workloads::Workload*>& programs,
         bool smoke, Values& out)
{
    const sim::CpuConfig cpu;

    std::vector<sim::Program> assembled;
    std::vector<double> assemble_ms;
    for (const auto* w : programs) {
        std::vector<double> samples;
        for (int rep = 0; rep < 3; ++rep) {
            const Clock::time_point t0 = Clock::now();
            sim::Program program = w->assemble();
            samples.push_back(secondsSince(t0) * 1e3);
            if (rep == 0)
                assembled.push_back(std::move(program));
        }
        assemble_ms.push_back(quantile(samples, 0.5));
    }
    out["workloads.assemble_ms"] = mean(assemble_ms);

    // Host speed of whole-program simulation, in passes over every
    // program until half a second has been measured; the simulated
    // statistics come from the first pass and must repeat exactly.
    std::vector<double> rates;
    std::vector<uint64_t> golden_cycles;
    uint64_t cycles = 0, instructions = 0, cache = 0, tlb = 0;
    const Clock::time_point probe_start = Clock::now();
    do {
        double seconds = 0;
        uint64_t pass_cycles = 0;
        for (const sim::Program& program : assembled) {
            sim::Simulator simulator(program, cpu);
            const Clock::time_point t0 = Clock::now();
            const sim::SimResult r = simulator.run(0);
            seconds += secondsSince(t0);
            pass_cycles += r.cycles;
            if (!rates.empty())
                continue;
            golden_cycles.push_back(r.cycles);
            cycles += r.cycles;
            instructions += r.instructions;
            for (const sim::CacheStats* s :
                 {&r.l1iStats, &r.l1dStats, &r.l2Stats})
                cache += s->hits + s->misses;
            for (const sim::TlbStats* s : {&r.itlbStats, &r.dtlbStats})
                tlb += s->hits + s->misses;
        }
        rates.push_back(static_cast<double>(pass_cycles) / seconds);
    } while (!smoke &&
             (rates.size() < 2 || secondsSince(probe_start) < 0.5));
    out["sim.cycles_per_s"] = quantile(rates, 0.5);
    out["sim.golden_cycles"] = static_cast<double>(cycles);
    const double c = static_cast<double>(cycles);
    out["sim.ipc"] = static_cast<double>(instructions) / c;
    out["sim.cache_accesses_per_cycle"] = static_cast<double>(cache) / c;
    out["sim.tlb_accesses_per_cycle"] = static_cast<double>(tlb) / c;

    // The snapshot calls the campaign layer makes per run: a full
    // checkpoint, a delta checkpoint one injection gap after the
    // previous one, and a restore.
    const int reps = smoke ? 1 : SnapshotReps;
    std::vector<double> full_us, delta_us, restore_us;
    for (size_t i = 0; i < assembled.size(); ++i) {
        sim::Simulator simulator(assembled[i], cpu);
        simulator.run(golden_cycles[i] / 2);
        std::vector<double> full, delta, restore;
        simulator.deltaCheckpoint();
        for (int rep = 0; rep < reps; ++rep) {
            simulator.run(simulator.cycle() + DeltaGap);
            const Clock::time_point t0 = Clock::now();
            simulator.deltaCheckpoint();
            delta.push_back(secondsSince(t0) * 1e6);
        }
        std::vector<sim::Snapshot> snapshots(reps);
        for (int rep = 0; rep < reps; ++rep) {
            const Clock::time_point t0 = Clock::now();
            snapshots[rep] = simulator.checkpoint();
            full.push_back(secondsSince(t0) * 1e6);
        }
        for (int rep = 0; rep < reps; ++rep) {
            const Clock::time_point t0 = Clock::now();
            simulator.restore(snapshots[rep]);
            restore.push_back(secondsSince(t0) * 1e6);
        }
        full_us.push_back(quantile(full, 0.5));
        delta_us.push_back(quantile(delta, 0.5));
        restore_us.push_back(quantile(restore, 0.5));
    }
    out["sim.checkpoint_us"] = mean(full_us);
    out["sim.delta_checkpoint_us"] = mean(delta_us);
    out["sim.restore_us"] = mean(restore_us);
}

std::string
probeWire(const std::vector<CellRecords>& cells,
          const std::vector<const core::GoldenArtifacts*>& goldens,
          const std::string& dir, Values& out)
{
    std::string failure;
    auto fail = [&](const std::string& why) {
        if (failure.empty())
            failure = why;
    };

    // A run record as a worker streams it: serialize, frame, read the
    // frame back, parse.
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        return "socketpair failed";
    std::vector<double> frame_us;
    for (const CellRecords& cell : cells) {
        for (const core::RunRecord& record : cell.records) {
            const Clock::time_point t0 = Clock::now();
            std::string payload = core::serializeRunRecord(record);
            std::string received;
            core::RunRecord back;
            const bool ok = dist::writeFrame(fds[0], payload) &&
                            dist::readFrame(fds[1], received) == 1 &&
                            core::parseRunRecord(received, back);
            frame_us.push_back(secondsSince(t0) * 1e6);
            if (!ok || back.index != record.index ||
                back.outcome != record.outcome ||
                back.cycles != record.cycles) {
                fail(strprintf("run %u did not survive the frame round "
                               "trip", record.index));
            }
        }
    }
    ::close(fds[0]);
    ::close(fds[1]);
    out["dist.rec_frame_us.p50"] = quantile(frame_us, 0.5);
    out["dist.rec_frame_us.p90"] = quantile(frame_us, 0.9);

    std::vector<double> wire_ms;
    double blob_kb = 0;
    for (const core::GoldenArtifacts* golden : goldens) {
        const Clock::time_point t0 = Clock::now();
        const std::string blob =
            core::serializeGoldenWire(core::wireFromArtifacts(*golden));
        core::GoldenWire parsed;
        const bool ok = core::parseGoldenWire(blob, parsed);
        wire_ms.push_back(secondsSince(t0) * 1e3);
        if (!ok || parsed.result.cycles != golden->result.cycles)
            fail("a golden blob did not survive the wire round trip");
        blob_kb += static_cast<double>(blob.size()) / 1024.0;
    }
    out["dist.golden_wire_ms"] = mean(wire_ms);
    out["dist.golden_blob_kb"] =
        goldens.empty() ? 0.0
                        : blob_kb / static_cast<double>(goldens.size());

    // Every record appended to a per-cell shard, then shards merged
    // into their canonical journals as a distributed sweep does. Each
    // merge fsyncs a file and a directory, so only MergedCells cells
    // spread over the grid are merged.
    std::vector<double> append_us, merge_ms;
    const size_t merge_every = (cells.size() + MergedCells - 1) / MergedCells;
    for (size_t i = 0; i < cells.size(); ++i) {
        const std::string canonical =
            strprintf("%s/cell%zu.journal", dir.c_str(), i);
        const std::string shard = canonical + ".shard-probe";
        {
            Journal journal(shard, cells[i].header);
            if (!journal.open())
                return "cannot open a journal shard under " + dir;
            for (const core::RunRecord& record : cells[i].records) {
                const std::string payload =
                    core::serializeRunRecord(record);
                const Clock::time_point t0 = Clock::now();
                journal.append(payload);
                append_us.push_back(secondsSince(t0) * 1e6);
            }
        }
        if (i % merge_every != 0)
            continue;
        const Clock::time_point t0 = Clock::now();
        const bool merged = mergeJournalShards(canonical, {shard});
        merge_ms.push_back(secondsSince(t0) * 1e3);
        if (!merged ||
            Journal::replay(canonical, cells[i].header).size() !=
                cells[i].records.size()) {
            fail(strprintf("journal of cell %zu lost records in the "
                           "shard merge", i));
        }
    }
    out["util.journal.append_us.p50"] = quantile(append_us, 0.5);
    out["util.journal.append_us.p90"] = quantile(append_us, 0.9);
    out["util.journal.merge_ms"] = mean(merge_ms);
    return failure;
}

std::vector<Mismatch>
checkDefinitional(const workloads::Workload& workload,
                  core::Component component, uint32_t timeout_factor,
                  const std::vector<const core::RunRecord*>& records)
{
    const sim::Program program = workload.assemble();
    const sim::CpuConfig cpu;
    const sim::SimResult golden = sim::Simulator(program, cpu).run(0);
    std::vector<Mismatch> mismatches;
    for (const core::RunRecord* record : records) {
        sim::Simulator simulator(program, cpu);
        sim::Injection injection;
        injection.target = core::targetFor(component);
        injection.cycle = record->cycle;
        injection.flips = record->mask.flips;
        simulator.scheduleInjection(injection);
        std::string what;
        try {
            const sim::SimResult faulty =
                simulator.run(golden.cycles * timeout_factor);
            const core::Outcome outcome = core::classify(golden, faulty);
            if (outcome != record->outcome ||
                faulty.cycles != record->cycles) {
                what = strprintf(
                    "recorded %s after %llu cycles, the reference "
                    "simulation gives %s after %llu",
                    core::outcomeName(record->outcome),
                    static_cast<unsigned long long>(record->cycles),
                    core::outcomeName(outcome),
                    static_cast<unsigned long long>(faulty.cycles));
            }
        } catch (const std::exception& e) {
            what = strprintf("the reference simulation threw (%s)",
                             e.what());
        }
        if (!what.empty()) {
            mismatches.push_back(
                {record, strprintf("%s %s run %u: %s",
                                   workload.name.c_str(),
                                   core::componentShortName(component),
                                   record->index, what.c_str())});
        }
    }
    return mismatches;
}

} // namespace e2e
