/**
 * @file
 * Monte Carlo lifetime simulation (paper Section VII, "Simulation
 * Techniques"): each cycle injects stochastic errors on the data qubits,
 * extracts the error syndrome (directly or through the Fig. 3 stabilizer
 * circuits), hands it to the decoder under test, applies the returned
 * correction, and classifies the residual. The ratio of logical errors
 * to cycles is the logical error rate PL.
 */

#ifndef NISQPP_SIM_MONTE_CARLO_HH
#define NISQPP_SIM_MONTE_CARLO_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/knob.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "decoders/decoder.hh"
#include "noise/noise_model.hh"
#include "obs/metrics.hh"
#include "surface/logical.hh"
#include "surface/syndrome_window.hh"

namespace nisqpp {

/**
 * Largest accepted trial-budget multiplier (NISQPP_TRIALS,
 * --trials-scale); larger values are almost certainly typos and would
 * schedule practically unbounded runs.
 */
inline constexpr double kMaxTrialsMultiplier = 1e6;

/** NISQPP_TRIALS: multiplies trial budgets on top of --trials-scale. */
inline constexpr const char *kTrialsEnv = "NISQPP_TRIALS";

/** The value kind NISQPP_TRIALS and --trials-scale share. */
inline constexpr knob::Kind kTrialsMultiplier =
    {knob::Kind::Real, 0.0, kMaxTrialsMultiplier, true};

/** Stopping rule for adaptive sampling. */
struct StopRule
{
    std::size_t minTrials = 1000;
    std::size_t maxTrials = 20000;
    std::size_t targetFailures = 100; ///< stop early once this many seen

    /**
     * Scale min/max trial counts by @p mult (> 0); the failure target
     * is left alone so early stopping keeps its meaning.
     */
    StopRule scaled(double mult) const;

    /**
     * Scale trial counts by the NISQPP_TRIALS environment variable
     * (a multiplier, default 1.0) so benches can be re-run at higher
     * statistical resolution without recompiling. A malformed value
     * (outside kTrialsMultiplier) warns and leaves the rule unchanged.
     */
    StopRule scaledByEnv() const;
};

/** Aggregate result of one (lattice, p, decoder) Monte Carlo run. */
struct MonteCarloResult
{
    std::size_t trials = 0;
    std::size_t failures = 0;
    std::size_t syndromeResidualFailures = 0; ///< subset: residual syndrome
    double logicalErrorRate = 0.0;
    WilsonInterval ci{0.0, 1.0};

    /** Mesh decoder execution cycles per round (when applicable). */
    RunningStats cycles;
    /** Distribution of cycles (Fig. 10(c)); sized in the simulator. */
    Histogram cycleHistogram{0};

    /**
     * Deterministic work counters attached to this run (filled by the
     * engine's shard runner: engine.* trial counts plus the decoders'
     * exported decoder.* counters). Riding inside the result means
     * metrics inherit the engine's ordered prefix merge — shards past
     * the stop point are discarded together with their counters, so
     * aggregates are byte-identical at any thread count.
     */
    obs::MetricSet metrics;

    /**
     * Fold another accumulator into this one (parallel shard
     * reduction); call finalize() afterwards to refresh the derived
     * rate and confidence interval. An empty accumulator adopts the
     * other's histogram binning.
     */
    void merge(const MonteCarloResult &other);

    /** Recompute logicalErrorRate and ci from trials/failures. */
    void finalize();
};

class TrialWorkspace;

/**
 * One lifetime-protocol run (an engine shard): its noise model, seed
 * and stop rule, plus where its result goes.
 */
struct LifetimeJob
{
    NoiseModel model;
    std::uint64_t seed = 0;
    StopRule rule{};
    /**
     * Receives the finished run's finalized result and the mesh work
     * counters of its own decodes (empty for decoders without mesh
     * telemetry).
     */
    std::function<void(MonteCarloResult &&, const MeshWorkCounters &)>
        finish;
};

/** Claims the next lifetime for a free lane; nullopt when none is left. */
using LifetimeSource = std::function<std::optional<LifetimeJob>()>;

/**
 * Run the lifetimes @p claim hands out as @p lanes lanes of one
 * Decoder::decodeFeed loop (1 <= lanes <= zDecoder.lanes()). Every
 * lane owns its lifetime's RNG, noise model, error state, parity
 * trackers and result, so each result is exactly what a
 * LifetimeSimulator of its own would produce. When a lane's Z decode
 * of round k finishes, the lane applies the correction, decodes the X
 * family in place (scalar, when the job's model produces X errors),
 * classifies the round and samples round k + 1 into the freed lane;
 * when its lifetime ends it claims the next one. Returns once @p claim
 * is exhausted and every claimed lifetime has finished.
 */
void runLifetimes(const SurfaceLattice &lattice, Decoder &zDecoder,
                  Decoder *xDecoder, int lanes, TrialWorkspace &ws,
                  const LifetimeSource &claim);

/**
 * Per-round, code-capacity lifetime simulator for one error type.
 * Dephasing noise exercises the Z-error path the paper evaluates; the
 * depolarizing channel runs both families through two decoders.
 *
 * The per-round and windowed protocols run through one trial loop that
 * steps a group of lanes at a time: sample every lane (the RNG draw
 * order of that many consecutive scalar trials), decode each family as
 * a group, then classify the lanes in trial order. A windowed trial is
 * a lane whose unit is one measurement window. Lifetime mode is one
 * runLifetimes() lifetime.
 *
 * The hot path is allocation-free: lane scratch is grown to the group
 * size once per run, decoders borrow buffers from a TrialWorkspace
 * (the engine shares one per worker thread across shards; a simulator
 * without one owns a private workspace).
 */
class LifetimeSimulator
{
  public:
    /**
     * @param lattice  Lattice under test.
     * @param model    Error channel sampled each round.
     * @param zDecoder Decoder for Z data errors (X-ancilla syndromes).
     * @param xDecoder Decoder for X data errors; may be null when the
     *                 channel produces no X component (pure dephasing).
     * @param seed     Master RNG seed (deterministic reproduction).
     * @param workspace Scratch shared with other simulators on the
     *                 same thread; null = allocate a private one.
     */
    LifetimeSimulator(const SurfaceLattice &lattice,
                      const NoiseModel &model, Decoder &zDecoder,
                      Decoder *xDecoder, std::uint64_t seed,
                      TrialWorkspace *workspace = nullptr);

    ~LifetimeSimulator();

    /**
     * Select the Monte Carlo protocol. Per-round mode (default off)
     * clears the state each cycle and counts a failure when the
     * residual has a nonzero syndrome or flips the crossing logical.
     * Lifetime mode — the paper's protocol — keeps the residual across
     * cycles (imperfectly corrected errors are re-decoded next round)
     * and counts one logical error whenever the crossing parity of the
     * post-correction state flips. Each run() in lifetime mode is one
     * fresh lifetime from the seed (runLifetimes() with one lane);
     * the engine packs many shards' lifetimes into the lanes of one
     * mesh decoder instead.
     */
    void setLifetimeMode(bool lifetime) { lifetimeMode_ = lifetime; }
    bool lifetimeMode() const { return lifetimeMode_; }

    /**
     * Group up to @p lanes trials per Decoder::decodeBatch (or
     * decodeWindowBatch) call, feeding the mesh decoder's lane-packed
     * substrate (software decoders fall back to a scalar loop). Every
     * aggregate — counters, cycle statistics, histograms — is
     * byte-identical to lanes = 1 for the same seed, including when
     * the stop rule trips mid-group. No effect in lifetime mode: one
     * lifetime's round k + 1 depends on round k's correction, so a
     * lifetime occupies one lane (runLifetimes packs lifetimes, not
     * rounds).
     */
    void setBatchLanes(std::size_t lanes);
    std::size_t batchLanes() const { return batchLanes_; }

    /**
     * Faulty-measurement windowed protocol: each trial clears the
     * state, runs @p rounds noisy measurement rounds (data errors
     * sampled per round, measured syndromes corrupted by the model's
     * flip rate q) plus one perfect commit round, hands the
     * accumulated SyndromeWindow to Decoder::decodeWindow, commits
     * the returned correction at the window boundary and classifies
     * the residual. 0 (the default) keeps the single-round protocols.
     * Mutually exclusive with lifetime mode (the streaming pipeline
     * owns the persistent-state windowed regime); mesh cycle
     * telemetry is not collected in windowed mode.
     */
    void setMeasurementWindow(int rounds);

    /** Run @p rule-governed trials and aggregate. */
    MonteCarloResult run(const StopRule &rule);

  private:
    void reserveLanes(std::size_t lanes);
    bool runGroup(std::size_t count, MonteCarloResult &acc,
                  const StopRule &rule);
    void fillWindow(std::size_t l);
    void decodeFamily(ErrorType type, Decoder &decoder,
                      std::size_t count);
    bool familyFailed(std::size_t l, ErrorType type,
                      MonteCarloResult &acc);

    const SurfaceLattice &lattice_;
    const NoiseModel &model_;
    Decoder &zDecoder_;
    Decoder *xDecoder_;
    std::uint64_t seed_;
    Rng rng_;
    bool lifetimeMode_ = false;
    /** model_.measurementFlipRate() > 0, cached off the hot path. */
    bool noisyReadout_ = false;
    std::size_t batchLanes_ = 1;
    int windowRounds_ = 0; ///< noisy rounds per window; 0 = off
    /**
     * Lane scratch, grown to the group-size high-water mark; the
     * windows are built only for windowed runs. @{
     */
    std::vector<ErrorState> states_;
    std::vector<Syndrome> synZ_, synX_;
    std::vector<SyndromeWindow> winZ_, winX_;
    std::vector<const Syndrome *> synPtrs_;
    std::vector<const SyndromeWindow *> winPtrs_;
    /** @} */
    TrialWorkspace *ws_;                 ///< borrowed (or owned_)
    std::unique_ptr<TrialWorkspace> owned_;
};

} // namespace nisqpp

#endif // NISQPP_SIM_MONTE_CARLO_HH
