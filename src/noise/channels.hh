/**
 * @file
 * Pluggable per-round noise channels (NISQ failure modes beyond the
 * paper's two i.i.d. data channels; cf. Brandhofer et al., "NISQ
 * Computers — How They Fail"). Each data channel samples i.i.d. per
 * data qubit per round; the measurement channel flips measured syndrome
 * bits with rate q. The depolarizing and dephasing channels reproduce
 * the exact per-qubit draw sequence of the legacy `DepolarizingModel`
 * and `DephasingModel`, so composing either one alone with q = 0 is
 * bit-identical to the pre-subsystem code.
 */

#ifndef NISQPP_NOISE_CHANNELS_HH
#define NISQPP_NOISE_CHANNELS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hh"
#include "surface/error_state.hh"

namespace nisqpp {

class Syndrome;

/** One composable per-round data-qubit error channel. */
class NoiseChannel
{
  public:
    virtual ~NoiseChannel() = default;

    /** Multiply one round of fresh errors into @p state. */
    virtual void sampleInto(Rng &rng, ErrorState &state) const = 0;

    /** Per-qubit per-round event rate parameter p. */
    virtual double rate() const = 0;

    virtual std::string name() const = 0;

    /** Whether the channel can set X error components. */
    virtual bool producesX() const = 0;
};

/** Pauli X, Y, Z each with probability p/3 per data qubit. */
class DepolarizingChannel : public NoiseChannel
{
  public:
    explicit DepolarizingChannel(double p);

    void sampleInto(Rng &rng, ErrorState &state) const override;
    double rate() const override { return p_; }
    std::string name() const override { return "depolarizing"; }
    bool producesX() const override { return true; }

  private:
    double p_;
    std::uint64_t thresh_; ///< Rng::threshold(p), hot-loop coin
};

/** Pauli Z with probability p per data qubit (the paper's headline). */
class DephasingChannel : public NoiseChannel
{
  public:
    explicit DephasingChannel(double p);

    void sampleInto(Rng &rng, ErrorState &state) const override;
    double rate() const override { return p_; }
    std::string name() const override { return "dephasing"; }
    bool producesX() const override { return false; }

  private:
    double p_;
    std::uint64_t thresh_; ///< Rng::threshold(p), hot-loop coin
};

/**
 * Biased Pauli channel with bias eta = pZ / (pX + pY): an error occurs
 * with probability p per qubit; it is Z with probability eta/(1+eta),
 * otherwise X or Y with equal probability. eta -> infinity recovers
 * pure dephasing; eta = 1/2 recovers the depolarizing split.
 */
class BiasedEtaChannel : public NoiseChannel
{
  public:
    BiasedEtaChannel(double p, double eta);

    void sampleInto(Rng &rng, ErrorState &state) const override;
    double rate() const override { return p_; }
    double eta() const { return eta_; }
    std::string name() const override;
    bool producesX() const override { return true; }

  private:
    double p_;
    double eta_;
    std::uint64_t thresh_; ///< Rng::threshold(p), hot-loop coin
};

/**
 * Erasure channel: with probability p a data qubit is erased —
 * replaced by a uniformly random Pauli from {I, X, Y, Z}. Decoders see
 * only the resulting syndrome, not the erased locations.
 */
class ErasureChannel : public NoiseChannel
{
  public:
    explicit ErasureChannel(double p);

    void sampleInto(Rng &rng, ErrorState &state) const override;
    double rate() const override { return p_; }
    std::string name() const override { return "erasure"; }
    bool producesX() const override { return true; }

  private:
    double p_;
    std::uint64_t thresh_; ///< Rng::threshold(p), hot-loop coin
};

/**
 * Measurement-flip channel: each measured syndrome bit flips
 * independently with probability q per round (faulty readout). q = 0
 * draws nothing, keeping perfect-measurement streams bit-identical.
 */
class MeasurementFlipChannel
{
  public:
    explicit MeasurementFlipChannel(double q);

    /** Corrupt one measured round in place. */
    void corrupt(Rng &rng, Syndrome &syndrome) const;

    double rate() const { return q_; }

  private:
    double q_;
    std::uint64_t thresh_; ///< Rng::threshold(q), hot-loop coin
};

} // namespace nisqpp

#endif // NISQPP_NOISE_CHANNELS_HH
