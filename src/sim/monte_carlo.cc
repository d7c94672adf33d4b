#include "sim/monte_carlo.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "decoders/workspace.hh"
#include "obs/trace.hh"

namespace nisqpp {

namespace {

/** Scale a trial count, clamping instead of overflowing size_t. */
std::size_t
scaleTrials(std::size_t n, double mult)
{
    // Largest double guaranteed below SIZE_MAX on 64-bit targets.
    constexpr double cap = 9.0e18;
    const double scaled = static_cast<double>(n) * mult;
    if (scaled >= cap)
        return static_cast<std::size_t>(cap);
    const auto result = static_cast<std::size_t>(scaled);
    // Never scale a nonzero budget down to nothing: a zero-trial run
    // is indistinguishable from a genuine zero-failure result.
    if (result == 0 && n > 0)
        return 1;
    return result;
}

} // namespace

StopRule
StopRule::scaled(double mult) const
{
    StopRule out = *this;
    if (!std::isfinite(mult) || mult <= 0)
        return out;
    out.minTrials = scaleTrials(out.minTrials, mult);
    out.maxTrials = scaleTrials(out.maxTrials, mult);
    return out;
}

StopRule
StopRule::scaledByEnv() const
{
    knob::Value mult;
    return knob::readEnv(kTrialsEnv, kTrialsMultiplier, mult)
               ? scaled(mult.number)
               : *this;
}

void
MonteCarloResult::merge(const MonteCarloResult &other)
{
    trials += other.trials;
    failures += other.failures;
    syndromeResidualFailures += other.syndromeResidualFailures;
    cycles.merge(other.cycles);
    cycleHistogram.merge(other.cycleHistogram);
    metrics.merge(other.metrics);
}

void
MonteCarloResult::finalize()
{
    logicalErrorRate =
        trials ? static_cast<double>(failures) /
                     static_cast<double>(trials)
               : 0.0;
    ci = wilson95(failures, trials);
}

LifetimeSimulator::LifetimeSimulator(const SurfaceLattice &lattice,
                                     const ErrorModel &model,
                                     Decoder &zDecoder, Decoder *xDecoder,
                                     std::uint64_t seed,
                                     TrialWorkspace *workspace)
    : lattice_(lattice), model_(model), zDecoder_(zDecoder),
      xDecoder_(xDecoder), rng_(seed),
      noisyReadout_(model.measurementFlipRate() > 0.0), ws_(workspace)
{
    require(zDecoder.type() == ErrorType::Z,
            "LifetimeSimulator: zDecoder must decode Z errors");
    if (xDecoder_)
        require(xDecoder_->type() == ErrorType::X,
                "LifetimeSimulator: xDecoder must decode X errors");
    if (!ws_) {
        owned_ = std::make_unique<TrialWorkspace>();
        ws_ = owned_.get();
    }
}

LifetimeSimulator::~LifetimeSimulator() = default;

void
LifetimeSimulator::setBatchLanes(std::size_t lanes)
{
    batchLanes_ = std::max<std::size_t>(1, lanes);
}

void
LifetimeSimulator::setMeasurementWindow(int rounds)
{
    require(rounds >= 0,
            "LifetimeSimulator: window rounds must be >= 0");
    windowRounds_ = rounds;
}

void
LifetimeSimulator::recordMeshStats(const MeshDecodeStats *stats,
                                   MonteCarloResult &acc) const
{
    if (!stats)
        return;
    acc.cycles.add(stats->cycles);
    if (acc.cycleHistogram.numBins() > 1)
        acc.cycleHistogram.add(static_cast<std::size_t>(stats->cycles));
}

void
LifetimeSimulator::reserveLanes(std::size_t lanes)
{
    while (states_.size() < lanes)
        states_.emplace_back(lattice_);
    while (synZ_.size() < lanes)
        synZ_.emplace_back(lattice_, ErrorType::Z);
    if (xDecoder_)
        while (synX_.size() < lanes)
            synX_.emplace_back(lattice_, ErrorType::X);
    synPtrs_.resize(lanes);
    if (windowRounds_ == 0)
        return;
    const int total = windowRounds_ + 1;
    if (!winZ_.empty() && winZ_[0].rounds() != total) {
        winZ_.clear();
        winX_.clear();
    }
    while (winZ_.size() < lanes)
        winZ_.emplace_back(lattice_, ErrorType::Z, total);
    if (xDecoder_)
        while (winX_.size() < lanes)
            winX_.emplace_back(lattice_, ErrorType::X, total);
    winPtrs_.resize(lanes);
}

/**
 * Run lane @p l's measurement window: windowRounds_ noisy rounds
 * (sample data errors; extract; corrupt with the model's
 * measurement-flip rate) plus one perfect commit round. RNG draw order
 * per round is data sample, Z flips, X flips.
 */
void
LifetimeSimulator::fillWindow(std::size_t l)
{
    ErrorState &state = states_[l];
    state.clear();
    winZ_[l].reset();
    if (xDecoder_)
        winX_[l].reset();
    for (int t = 0; t < windowRounds_; ++t) {
        model_.sample(rng_, state);
        extractSyndromeInto(state, ErrorType::Z, synZ_[l]);
        model_.flipMeasurements(rng_, synZ_[l]);
        winZ_[l].recordRound(t, synZ_[l]);
        if (xDecoder_) {
            extractSyndromeInto(state, ErrorType::X, synX_[l]);
            model_.flipMeasurements(rng_, synX_[l]);
            winX_[l].recordRound(t, synX_[l]);
        }
    }
    extractSyndromeInto(state, ErrorType::Z, synZ_[l]);
    winZ_[l].recordRound(windowRounds_, synZ_[l]);
    if (xDecoder_) {
        extractSyndromeInto(state, ErrorType::X, synX_[l]);
        winX_[l].recordRound(windowRounds_, synX_[l]);
    }
}

/**
 * Decode one family for lanes [0, count) and apply the corrections.
 * A group of one takes the scalar entry points (the lane-packed
 * engines only pay off across several lanes).
 */
void
LifetimeSimulator::decodeFamily(ErrorType type, Decoder &decoder,
                                std::size_t count)
{
    std::vector<Syndrome> &syn = type == ErrorType::Z ? synZ_ : synX_;
    std::vector<SyndromeWindow> &win =
        type == ErrorType::Z ? winZ_ : winX_;
    const bool windowed = windowRounds_ > 0;
    if (!windowed) {
        obs::TraceSpan span(obs::Stage::Extract);
        for (std::size_t l = 0; l < count; ++l)
            extractSyndromeInto(states_[l], type, syn[l]);
    }
    {
        obs::TraceSpan span(obs::Stage::Decode);
        if (count == 1 && windowed) {
            decoder.decodeWindow(win[0], *ws_);
        } else if (count == 1) {
            decoder.decode(syn[0], *ws_);
        } else if (windowed) {
            for (std::size_t l = 0; l < count; ++l)
                winPtrs_[l] = &win[l];
            decoder.decodeWindowBatch(winPtrs_.data(), count, *ws_);
        } else {
            for (std::size_t l = 0; l < count; ++l)
                synPtrs_[l] = &syn[l];
            decoder.decodeBatch(synPtrs_.data(), count, *ws_);
        }
    }
    for (std::size_t l = 0; l < count; ++l) {
        const Correction &fix =
            count == 1 ? ws_->correction : ws_->laneCorrections[l];
        fix.applyTo(states_[l], type);
    }
}

/**
 * Whether lane @p l's @p type family failed: a crossing-parity flip
 * in lifetime mode, else a nonzero residual syndrome or logical flip.
 */
bool
LifetimeSimulator::familyFailed(std::size_t l, ErrorType type,
                                MonteCarloResult &acc)
{
    if (lifetimeMode_) {
        bool &tracked = type == ErrorType::Z ? zParity_ : xParity_;
        const bool parity = crossingParity(states_[l], type);
        const bool flipped = parity != tracked;
        tracked = parity;
        return flipped;
    }
    const FailureReport report = classifyResidual(states_[l], type);
    if (report.syndromeNonzero)
        ++acc.syndromeResidualFailures;
    return report.failed();
}

bool
LifetimeSimulator::runGroup(std::size_t count, MonteCarloResult &acc,
                            const StopRule &rule)
{
    // Sample every lane up front — the exact RNG draw sequence of
    // `count` scalar trials. One coarse span per phase, not per lane.
    {
        obs::TraceSpan span(obs::Stage::Sample);
        for (std::size_t l = 0; l < count; ++l) {
            if (windowRounds_ > 0) {
                fillWindow(l);
            } else {
                if (!lifetimeMode_)
                    states_[l].clear();
                model_.sample(rng_, states_[l]);
            }
        }
    }

    // X corrections touch only the X planes, so classifying Z after
    // the X decode sees the residual a scalar trial classifies
    // between the two decodes.
    decodeFamily(ErrorType::Z, zDecoder_, count);
    if (xDecoder_)
        decodeFamily(ErrorType::X, *xDecoder_, count);

    // Classify and aggregate in trial order: decoders retain per-lane
    // stats, so lane l's Z and X telemetry is recorded back-to-back as
    // a scalar trial's would be. Windowed decodes record none.
    const bool telemetry = windowRounds_ == 0;
    obs::TraceSpan span(obs::Stage::Classify);
    for (std::size_t l = 0; l < count; ++l) {
        if (telemetry)
            recordMeshStats(zDecoder_.meshStats(l), acc);
        bool failed = familyFailed(l, ErrorType::Z, acc);
        if (xDecoder_) {
            if (telemetry)
                recordMeshStats(xDecoder_->meshStats(l), acc);
            failed |= familyFailed(l, ErrorType::X, acc);
        } else {
            require(states_[l].weight(ErrorType::X) == 0,
                    "LifetimeSimulator: X errors present but no X "
                    "decoder");
        }
        ++acc.trials;
        if (failed)
            ++acc.failures;
        // Stop-rule hit mid-group: drop the remaining lanes, exactly
        // as a scalar loop would never have run those trials.
        if (acc.trials >= rule.minTrials &&
            acc.failures >= rule.targetFailures)
            return true;
    }
    return false;
}

MonteCarloResult
LifetimeSimulator::run(const StopRule &rule)
{
    MonteCarloResult acc;
    acc.cycleHistogram =
        Histogram(static_cast<std::size_t>(128 * (lattice_.gridSize()
                                                  + 2)));
    // Only windowed trials call flipMeasurements: running a noisy-
    // readout model without a window would silently simulate q = 0
    // while reporting a q > 0 configuration.
    require(windowRounds_ > 0 || !noisyReadout_,
            "LifetimeSimulator: measurement noise (q > 0) requires a "
            "decode window (setMeasurementWindow)");
    require(windowRounds_ == 0 || !lifetimeMode_,
            "LifetimeSimulator: windowed decoding and lifetime "
            "mode are mutually exclusive (use the streaming "
            "pipeline for persistent windowed runs)");
    // Lifetime round k + 1 decodes round k's residual, so its rounds
    // cannot share a group.
    const std::size_t lanes = lifetimeMode_ ? 1 : batchLanes_;
    reserveLanes(lanes);
    while (acc.trials < rule.maxTrials) {
        const std::size_t group =
            std::min(lanes, rule.maxTrials - acc.trials);
        if (runGroup(group, acc, rule))
            break;
    }
    acc.finalize();
    return acc;
}

} // namespace nisqpp
