/** @file Statistical contract of every noise channel, old and new:
 * empirical X/Y/Z (and measurement-flip) marginals over >= 1e5
 * samples must sit inside a 5-sigma binomial band of the configured
 * rates. Seeds are fixed, so these never flake; a channel whose
 * sampling drifts by more than 5 sigma is a real bug. */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "noise/noise_model.hh"
#include "surface/error_model.hh"
#include "surface/syndrome.hh"

namespace nisqpp {
namespace {

struct PauliCounts
{
    long long x = 0, y = 0, z = 0;
    long long samples = 0;
};

/** Per-round i.i.d. marginals: fresh state each round. */
PauliCounts
sampleMarginals(const ErrorModel &model, const SurfaceLattice &lat,
                long long minSamples, std::uint64_t seed)
{
    Rng rng(seed);
    ErrorState state(lat);
    PauliCounts counts;
    while (counts.samples < minSamples) {
        state.clear();
        model.sample(rng, state);
        for (int q = 0; q < lat.numData(); ++q) {
            switch (state.at(q)) {
              case Pauli::X: ++counts.x; break;
              case Pauli::Y: ++counts.y; break;
              case Pauli::Z: ++counts.z; break;
              default: break;
            }
        }
        counts.samples += lat.numData();
    }
    return counts;
}

/** |empirical - expected| <= 5 sigma of the binomial proportion. */
void
expectWithinFiveSigma(long long hits, long long samples,
                      double expected, const char *label)
{
    const double n = static_cast<double>(samples);
    const double empirical = static_cast<double>(hits) / n;
    const double sigma =
        std::sqrt(std::max(expected * (1.0 - expected), 1e-12) / n);
    EXPECT_LE(std::abs(empirical - expected), 5.0 * sigma)
        << label << ": empirical " << empirical << " vs expected "
        << expected << " (5 sigma = " << 5.0 * sigma << ", n = "
        << samples << ")";
}

constexpr long long kMinSamples = 100000;

TEST(ChannelStats, DephasingChannel)
{
    SurfaceLattice lat(5);
    const double p = 0.07;
    const NoiseModel model = NoiseModel::dephasing(p);
    const PauliCounts c =
        sampleMarginals(model, lat, kMinSamples, 0xd0);
    ASSERT_GE(c.samples, kMinSamples);
    expectWithinFiveSigma(c.z, c.samples, p, "dephasing Z");
    EXPECT_EQ(c.x, 0);
    EXPECT_EQ(c.y, 0);
}

TEST(ChannelStats, DepolarizingChannel)
{
    SurfaceLattice lat(5);
    const double p = 0.09;
    const NoiseModel model = NoiseModel::depolarizing(p);
    const PauliCounts c =
        sampleMarginals(model, lat, kMinSamples, 0xd1);
    expectWithinFiveSigma(c.x, c.samples, p / 3, "depolarizing X");
    expectWithinFiveSigma(c.y, c.samples, p / 3, "depolarizing Y");
    expectWithinFiveSigma(c.z, c.samples, p / 3, "depolarizing Z");
}

TEST(ChannelStats, BiasedEtaChannel)
{
    SurfaceLattice lat(5);
    const double p = 0.08, eta = 4.0;
    const NoiseModel model = NoiseModel::biased(p, eta);
    const PauliCounts c =
        sampleMarginals(model, lat, kMinSamples, 0xd2);
    const double pz = p * eta / (1.0 + eta);
    const double px = p / (2.0 * (1.0 + eta));
    expectWithinFiveSigma(c.z, c.samples, pz, "biased Z");
    expectWithinFiveSigma(c.x, c.samples, px, "biased X");
    expectWithinFiveSigma(c.y, c.samples, px, "biased Y");
}

TEST(ChannelStats, BiasedEtaLimitsRecoverKnownChannels)
{
    // eta = 1/2 splits evenly (depolarizing); huge eta is dephasing.
    SurfaceLattice lat(5);
    const double p = 0.09;
    const NoiseModel depol = NoiseModel::biased(p, 0.5);
    PauliCounts c = sampleMarginals(depol, lat, kMinSamples, 0xd3);
    expectWithinFiveSigma(c.x, c.samples, p / 3, "eta=1/2 X");
    expectWithinFiveSigma(c.z, c.samples, p / 3, "eta=1/2 Z");

    const NoiseModel deph = NoiseModel::biased(p, 1e9);
    c = sampleMarginals(deph, lat, kMinSamples, 0xd4);
    expectWithinFiveSigma(c.z, c.samples, p, "eta=inf Z");
}

TEST(ChannelStats, ErasureChannel)
{
    SurfaceLattice lat(5);
    const double p = 0.06;
    const NoiseModel model = NoiseModel::erasure(p);
    const auto *channel =
        dynamic_cast<const ErasureChannel *>(&model.channel(0));
    ASSERT_NE(channel, nullptr);

    // Marginals: an erased qubit lands on each Pauli (including I)
    // with probability p/4.
    const PauliCounts c =
        sampleMarginals(model, lat, kMinSamples, 0xd5);
    expectWithinFiveSigma(c.x, c.samples, p / 4, "erasure X");
    expectWithinFiveSigma(c.y, c.samples, p / 4, "erasure Y");
    expectWithinFiveSigma(c.z, c.samples, p / 4, "erasure Z");
}

TEST(ChannelStats, MeasurementFlipChannel)
{
    SurfaceLattice lat(5);
    const double q = 0.05;
    const NoiseModel model = NoiseModel::dephasing(0.0, q);
    Rng rng(0xd7);
    Syndrome syn(lat, ErrorType::Z);
    long long flips = 0, samples = 0;
    while (samples < kMinSamples) {
        syn.clear();
        model.flipMeasurements(rng, syn);
        flips += syn.weight();
        samples += syn.size();
    }
    ASSERT_GE(samples, kMinSamples);
    expectWithinFiveSigma(flips, samples, q, "measurement flips");
}

TEST(ChannelStats, PerfectMeasurementDrawsNothing)
{
    // q = 0 must not advance the RNG: the draw-sequence guarantee
    // behind byte-identical perfect-measurement goldens.
    SurfaceLattice lat(3);
    const NoiseModel model = NoiseModel::dephasing(0.1, 0.0);
    Rng a(42), b(42);
    Syndrome syn(lat, ErrorType::Z);
    model.flipMeasurements(a, syn);
    EXPECT_EQ(syn.weight(), 0);
    EXPECT_EQ(a.next(), b.next());
}

TEST(ChannelStats, LegacyShimsMatchNewChannels)
{
    // The q = 0 compatibility shims must produce the exact draw
    // sequence of the composed channels (bit-identical states from
    // the same seed).
    SurfaceLattice lat(5);
    const DephasingModel legacyDeph(0.08);
    const NoiseModel newDeph = NoiseModel::dephasing(0.08);
    Rng r1(7), r2(7);
    ErrorState s1(lat), s2(lat);
    for (int round = 0; round < 200; ++round) {
        legacyDeph.sample(r1, s1);
        newDeph.sample(r2, s2);
    }
    EXPECT_EQ(s1.bits(ErrorType::Z), s2.bits(ErrorType::Z));
    EXPECT_EQ(s1.bits(ErrorType::X), s2.bits(ErrorType::X));

    const DepolarizingModel legacyDepol(0.08);
    const NoiseModel newDepol = NoiseModel::depolarizing(0.08);
    Rng r3(9), r4(9);
    ErrorState s3(lat), s4(lat);
    for (int round = 0; round < 200; ++round) {
        legacyDepol.sample(r3, s3);
        newDepol.sample(r4, s4);
    }
    EXPECT_EQ(s3.bits(ErrorType::Z), s4.bits(ErrorType::Z));
    EXPECT_EQ(s3.bits(ErrorType::X), s4.bits(ErrorType::X));
}

TEST(ChannelStats, LegacyShimStatisticalContract)
{
    // The old names keep their statistical contract too (the
    // pre-subsystem tests sampled these classes directly).
    SurfaceLattice lat(5);
    const DephasingModel deph(0.1);
    PauliCounts c = sampleMarginals(deph, lat, kMinSamples, 0xd8);
    expectWithinFiveSigma(c.z, c.samples, 0.1, "legacy dephasing Z");
    EXPECT_EQ(c.x + c.y, 0);

    const DepolarizingModel depol(0.12);
    c = sampleMarginals(depol, lat, kMinSamples, 0xd9);
    expectWithinFiveSigma(c.x, c.samples, 0.04, "legacy depol X");
    expectWithinFiveSigma(c.y, c.samples, 0.04, "legacy depol Y");
    expectWithinFiveSigma(c.z, c.samples, 0.04, "legacy depol Z");
}

} // namespace
} // namespace nisqpp
