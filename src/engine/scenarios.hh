/**
 * @file
 * Internal declarations of the scenario bodies (one per reproduced
 * figure/table); the registry in scenario.cc wires them to names.
 */

#ifndef NISQPP_ENGINE_SCENARIOS_HH
#define NISQPP_ENGINE_SCENARIOS_HH

#include <string>
#include <vector>

#include "stream/stream_sim.hh"

namespace nisqpp {

class ScenarioContext;

namespace scenarios {

/** Escalation backend of every tiered streaming job. */
inline constexpr const char *kExactFamily = "union_find";

/** One streaming cell: its run configuration and the decoder it runs. */
struct StreamJob
{
    /**
     * A decoderFamilies() name, or "tiered" for the mesh escalating to
     * kExactFamily below the confidence @p threshold.
     */
    std::string decoder;
    double threshold = 0.0;
    /** Lattice set by the caller; latency and --batch by the runner. */
    StreamConfig config;
};

/**
 * Run every job through the engine's job pool, each on a decoder and
 * StreamLatencyModel resolved from its decoder name, and fold each
 * job's deterministic stream and decoder counters into the scenario
 * sink in job order. Results land in job order; every job is a
 * deterministic function of its configuration, so results and metrics
 * are byte-identical at any thread count and --batch lane count.
 */
std::vector<StreamingResult>
runStreamJobs(ScenarioContext &ctx, const std::vector<StreamJob> &jobs);

/** Analytic reproductions (no Monte Carlo). @{ */
void fig01Sqv(ScenarioContext &ctx);
void fig11Distance(ScenarioContext &ctx);
void table1Circuits(ScenarioContext &ctx);
void table2Cells(ScenarioContext &ctx);
void table3Synthesis(ScenarioContext &ctx);
/** @} */

/** Monte Carlo sweeps through the parallel engine. @{ */
void fig10Final(ScenarioContext &ctx);
void fig10Variants(ScenarioContext &ctx);
void fig10Cycles(ScenarioContext &ctx);
void table4Latency(ScenarioContext &ctx);
void table5Fit(ScenarioContext &ctx);
void microDecoders(ScenarioContext &ctx);
void microHotpath(ScenarioContext &ctx);
/** @} */

/** Streaming decode pipeline (scenarios_stream.cc). @{ */
void fig05Backlog(ScenarioContext &ctx);
void fig06Runtime(ScenarioContext &ctx);
void streamingBacklog(ScenarioContext &ctx);
/** @} */

/** Noise subsystem: faulty measurement + channel zoo
 * (scenarios_noise.cc). @{ */
void fig10Measurement(ScenarioContext &ctx);
void noiseZoo(ScenarioContext &ctx);
/** @} */

/** Tiered mesh-first decoding frontier (scenarios_tiered.cc). */
void tieredDecode(ScenarioContext &ctx);

/** Fault-injected streaming degradation (scenarios_faults.cc). */
void faultSweep(ScenarioContext &ctx);

} // namespace scenarios
} // namespace nisqpp

#endif // NISQPP_ENGINE_SCENARIOS_HH
