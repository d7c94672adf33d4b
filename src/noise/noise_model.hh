/**
 * @file
 * The noise layer: one per-round data-qubit channel at physical rate p
 * plus readout flips at rate q (NISQ failure modes beyond the paper's
 * two i.i.d. data channels; cf. Brandhofer et al., "NISQ Computers —
 * How They Fail"). A `NoiseSpec` value describes a model shape
 * (channel kind, bias, q) without p, so the experiment engine can
 * carry noise configuration through `CellSpec`/`SweepConfig` by value
 * and instantiate a `NoiseModel` per shard deterministically.
 */

#ifndef NISQPP_NOISE_NOISE_MODEL_HH
#define NISQPP_NOISE_NOISE_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "surface/error_state.hh"

namespace nisqpp {

class Syndrome;

/** Named data-channel kinds. */
enum class NoiseKind : unsigned char
{
    Dephasing,    ///< Z with probability p (the paper's headline)
    Depolarizing, ///< X, Y, Z each with probability p/3
    /**
     * Biased Pauli channel with bias eta = pZ / (pX + pY): an error
     * occurs with probability p; it is Z with probability
     * eta/(1+eta), otherwise X or Y with equal probability.
     * eta -> infinity recovers pure dephasing; eta = 1/2 recovers the
     * depolarizing split.
     */
    Biased,
    /**
     * With probability p a data qubit is erased — replaced by a
     * uniformly random Pauli from {I, X, Y, Z}. Decoders see only the
     * resulting syndrome, not the erased locations.
     */
    Erasure,
};

/**
 * Value-type description of a noise model, minus the physical rate p
 * (the sweep axis). Defaults reproduce the paper's configuration:
 * pure dephasing with perfect measurement.
 */
struct NoiseSpec
{
    NoiseKind kind = NoiseKind::Dephasing;
    double eta = 10.0;  ///< bias, used by NoiseKind::Biased only
    double q = 0.0;     ///< measurement flip rate; 0 = perfect readout

    /**
     * Value-chained measurement noise, so the flip rate is always
     * named at the call site: NoiseSpec::dephasing().withQ(0.02)
     * (the factories deliberately take no bare rate argument — the
     * physical rate p is the sweep axis, supplied at model
     * instantiation).
     */
    NoiseSpec
    withQ(double flipRate) const
    {
        NoiseSpec out = *this;
        out.q = flipRate;
        return out;
    }

    static NoiseSpec dephasing();
    static NoiseSpec depolarizing();
    static NoiseSpec biased(double eta);
    static NoiseSpec erasure();
};

/** Display name of a channel kind ("dephasing", "biased", ...). */
std::string noiseKindName(NoiseKind kind);

/** All channel kinds, in presentation order (noise_zoo iterates it). */
const std::vector<NoiseKind> &noiseKindRegistry();

/**
 * One data channel sampled i.i.d. per data qubit per round, plus
 * measured-syndrome bit flips of rate q. A zero rate draws nothing
 * from the RNG (p = 0 in sample, q = 0 in flipMeasurements), so
 * perfect-measurement streams keep their draw sequences.
 */
class NoiseModel
{
  public:
    /** Instantiate @p spec at physical rate @p p. */
    NoiseModel(const NoiseSpec &spec, double p);

    /** Multiply one round of fresh data errors into @p state. */
    void sample(Rng &rng, ErrorState &state) const;

    /** Flip each bit of @p syndrome independently with probability q. */
    void flipMeasurements(Rng &rng, Syndrome &syndrome) const;

    /** Measurement (readout) flip rate q; 0 = perfect measurement. */
    double measurementFlipRate() const { return spec_.q; }

    /**
     * Whether the channel can produce X error components (callers use
     * this to decide if an X-family decoder is required).
     */
    bool producesX() const { return spec_.kind != NoiseKind::Dephasing; }

    /** @name Named factories @{ */
    static NoiseModel depolarizing(double p, double q = 0.0);
    static NoiseModel dephasing(double p, double q = 0.0);
    static NoiseModel biased(double p, double eta, double q = 0.0);
    static NoiseModel erasure(double p, double q = 0.0);
    /** @} */

  private:
    NoiseSpec spec_;
    double p_;
    std::uint64_t pThresh_; ///< Rng::threshold(p), hot-loop coin
    std::uint64_t qThresh_; ///< Rng::threshold(q), hot-loop coin
};

} // namespace nisqpp

#endif // NISQPP_NOISE_NOISE_MODEL_HH
