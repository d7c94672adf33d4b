/**
 * @file
 * The benchmark's four workloads. Each drives the library through the
 * entry points its users call (Engine::runSweep / runJobs, runStream,
 * the sim/experiment.hh decoder factories) on a fixed trial budget
 * derived from the workload seed, and checks every cell it ran.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/sweep.hh"
#include "obs/metrics.hh"

namespace perfbench {

/** One checked output cell of a repetition. */
struct CellOutcome
{
    std::string label;
    /** FNV-1a over trials, failures and every deterministic counter. */
    std::uint64_t fingerprint = 0;
    /** Empty when every invariant held; else what failed. */
    std::string violation;
};

/** What one fixed-budget repetition did. */
struct RepOutcome
{
    std::uint64_t units = 0; ///< decoded rounds or committed windows
    std::vector<CellOutcome> cells;
    /** Deterministic counters of all cells merged (decoder.*, stream.*). */
    nisqpp::obs::MetricSet counters;
    /** [start, end] ns of each engine call (runSweep / runJobs). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> waves;
    /** Thread-pool task and steal counts of this repetition. */
    std::uint64_t tasks = 0;
    std::uint64_t steals = 0;
    /** Streaming aggregates (stream_faults only). @{ */
    std::uint64_t maxBacklogRounds = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t shedRounds = 0;
    std::uint64_t lostRounds = 0;
    double simP99ServiceNs = 0.0; ///< worst cell's virtual-clock p99
    /** @} */
    /** nowNs() when the repetition's first decoder was built. */
    std::uint64_t firstTrialNs = 0;
};

/** One decoder the layer replay drives sample -> extract -> decode -> classify. */
struct ReplaySpec
{
    std::string family; ///< decoderFamilies() name, or "tiered"
    int distance = 3;
    double p = 0.05;
    /** Noisy rounds per window (q = p); 0 = single-round trials. */
    int windowRounds = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /**
     * Build what a repetition starts from: the engine with its thread
     * pool, plus the lattices stream_faults' cells point at. The
     * repetition builds the rest (sweep lattices, one decoder per shard
     * or stream job) through the library's own entry points.
     */
    virtual void setup() = 0;

    /** Release what setup() built (joins the engine's pool). */
    virtual void teardown() = 0;

    /**
     * One repetition on the fixed budget, its inputs derived from
     * @p seed only. @p traced wraps every decoder in a TimedDecoder
     * and puts a span around each job.
     */
    virtual RepOutcome run(std::uint64_t seed, bool traced) = 0;

    /** The decoders and shapes the layer replay covers. */
    virtual std::vector<ReplaySpec> replaySpecs() const = 0;

    /** Worker threads of the engine. */
    virtual int threads() const = 0;
};

/** Build workload @p name; null when the name is unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** SplitMix64 finalizer: derives independent seeds from one. */
std::uint64_t splitmix(std::uint64_t x);

/**
 * Decoder factory of @p family: a decoderFamilies() name, or "tiered"
 * (mesh first tier escalating to union-find at confidence 0.5).
 */
nisqpp::DecoderFactory familyFactory(const std::string &family);

/** FNV-1a fold of @p value into @p hash. */
std::uint64_t fnvMix(std::uint64_t hash, std::uint64_t value);
std::uint64_t fnvMix(std::uint64_t hash, const std::string &text);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
