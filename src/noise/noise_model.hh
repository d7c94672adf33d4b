/**
 * @file
 * Composite noise model: an ordered list of per-round data-qubit
 * channels plus a measurement-flip channel of rate q, implementing the
 * `ErrorModel` interface every layer above consumes. A `NoiseSpec`
 * value describes a model shape (channel kind, bias, q) without the
 * physical rate p, so the experiment engine can carry noise
 * configuration through `CellSpec`/`SweepConfig` by value and
 * instantiate per-shard models deterministically.
 */

#ifndef NISQPP_NOISE_NOISE_MODEL_HH
#define NISQPP_NOISE_NOISE_MODEL_HH

#include <memory>
#include <string>
#include <vector>

#include "noise/channels.hh"
#include "noise/error_model.hh"

namespace nisqpp {

/** Named channel kinds of the pluggable subsystem. */
enum class NoiseKind : unsigned char
{
    Dephasing,    ///< Z with probability p (the paper's headline)
    Depolarizing, ///< X, Y, Z each with probability p/3
    Biased,       ///< bias-eta Pauli channel
    Erasure,      ///< random-Pauli erasure channel
};

/**
 * Value-type description of a noise model, minus the physical rate p
 * (the sweep axis). Defaults reproduce the legacy configuration:
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

/** Composite data channels + measurement flips behind ErrorModel. */
class NoiseModel : public ErrorModel
{
  public:
    /** Empty model; add() channels before sampling. */
    NoiseModel() = default;

    NoiseModel(NoiseModel &&) = default;
    NoiseModel &operator=(NoiseModel &&) = default;

    /** Append a data channel; sampling runs channels in add order. */
    NoiseModel &add(std::unique_ptr<NoiseChannel> channel);

    /** Set the measurement flip rate q (0 disables readout noise). */
    NoiseModel &withMeasurementFlips(double q);

    /** @name ErrorModel @{ */
    void sample(Rng &rng, ErrorState &state) const override;
    double physicalRate() const override;
    std::string name() const override;
    double measurementFlipRate() const override { return q_.rate(); }
    void flipMeasurements(Rng &rng, Syndrome &syndrome) const override;
    bool producesX() const override;
    /** @} */

    std::size_t numChannels() const { return channels_.size(); }
    const NoiseChannel &channel(std::size_t i) const;

    /** @name Named factories @{ */
    static NoiseModel depolarizing(double p, double q = 0.0);
    static NoiseModel dephasing(double p, double q = 0.0);
    static NoiseModel biased(double p, double eta, double q = 0.0);
    static NoiseModel erasure(double p, double q = 0.0);
    /** @} */

    /** Instantiate @p spec at physical rate @p p. */
    static NoiseModel fromSpec(const NoiseSpec &spec, double p);

  private:
    std::vector<std::unique_ptr<NoiseChannel>> channels_;
    MeasurementFlipChannel q_{0.0};
};

/** Heap form of fromSpec (engine shards own their model). */
std::unique_ptr<NoiseModel> makeNoiseModel(const NoiseSpec &spec,
                                           double p);

} // namespace nisqpp

#endif // NISQPP_NOISE_NOISE_MODEL_HH
