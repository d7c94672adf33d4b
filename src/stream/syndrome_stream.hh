/**
 * @file
 * Syndrome producer of the streaming pipeline: emits one error-syndrome
 * round per syndrome cycle on a simulated wall clock, running the
 * paper's lifetime protocol physics (persistent error state, stochastic
 * injection each round). Extraction is perfect for models with
 * measurement flip rate q = 0 and noisy otherwise: each emitted round
 * is corrupted through ErrorModel::flipMeasurements, which is what
 * forces the windowed multi-round decoding regime the paper's
 * continuous-stream argument is about. The producer never waits for
 * the decoder — syndrome generation is a property of the quantum
 * hardware — which is exactly what creates backlog when the consumer
 * is too slow (paper Section III).
 */

#ifndef NISQPP_STREAM_SYNDROME_STREAM_HH
#define NISQPP_STREAM_SYNDROME_STREAM_HH

#include <cstdint>

#include "common/rng.hh"
#include "surface/error_model.hh"
#include "surface/error_state.hh"
#include "surface/syndrome.hh"

namespace nisqpp {

/**
 * Deterministic per-round syndrome source for one error family.
 * Successive emit() calls advance the simulated clock by one syndrome
 * cycle; the emitted syndrome reflects every error injected so far
 * composed with every correction applied to state() so far (the
 * lifetime protocol's closed loop).
 */
class SyndromeStream
{
  public:
    /**
     * @param lattice Lattice under test (shared, read-only).
     * @param model   Error channel sampled once per round.
     * @param type    Error family whose syndromes are streamed.
     * @param seed    Master seed; streams are exactly reproducible.
     * @param cycleNs Simulated syndrome generation cycle time.
     */
    SyndromeStream(const SurfaceLattice &lattice, const ErrorModel &model,
                   ErrorType type, std::uint64_t seed, double cycleNs);

    /**
     * Inject one round of errors and extract its *measured* syndrome
     * (readout flips applied at the model's rate q; none drawn when
     * q = 0). The returned reference stays valid until the next
     * emit().
     */
    const Syndrome &emit();

    /**
     * Extract the perfect (noise-free) syndrome of the current state
     * into @p out without advancing the stream: the commit/baseline
     * rounds of the windowed consumer.
     */
    void extractPerfectInto(Syndrome &out) const;

    double cycleNs() const { return cycleNs_; }
    ErrorType type() const { return type_; }

    /**
     * The persistent error state; the consumer applies corrections
     * here so residuals are re-decoded next round.
     */
    ErrorState &state() { return state_; }
    const ErrorState &state() const { return state_; }

    const SurfaceLattice &lattice() const { return lattice_; }

  private:
    const SurfaceLattice &lattice_;
    const ErrorModel &model_;
    ErrorType type_;
    Rng rng_;
    double cycleNs_;
    ErrorState state_;
    Syndrome syndrome_;
};

} // namespace nisqpp

#endif // NISQPP_STREAM_SYNDROME_STREAM_HH
