/** @file NoiseModel draw sequences, NoiseSpec dispatch, and the
 * noise layer's interface semantics. */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>

#include "noise/noise_model.hh"
#include "surface/syndrome.hh"

namespace nisqpp {
namespace {

TEST(NoiseModel, MeasurementFlipRateIsExposed)
{
    EXPECT_DOUBLE_EQ(
        NoiseModel::dephasing(0.05).measurementFlipRate(), 0.0);
    EXPECT_DOUBLE_EQ(
        NoiseModel::dephasing(0.05, 0.02).measurementFlipRate(), 0.02);
}

TEST(NoiseModel, ProducesXFollowsChannels)
{
    EXPECT_FALSE(NoiseModel::dephasing(0.05).producesX());
    EXPECT_TRUE(NoiseModel::depolarizing(0.05).producesX());
    EXPECT_TRUE(NoiseModel::biased(0.05, 10.0).producesX());
    EXPECT_TRUE(NoiseModel::erasure(0.05).producesX());
}

/** FNV-1a over the bits of @p bits, folded onto @p h. */
std::uint64_t
fold(std::uint64_t h, const PackedBits &bits)
{
    for (std::size_t i = 0; i < bits.size(); ++i)
        h = (h ^ (bits.get(i) ? 1u : 2u)) * 0x100000001b3ull;
    return h;
}

TEST(NoiseModel, DrawSequencesArePinned)
{
    // Literal fingerprints of 50 rounds of sample + extract +
    // flipMeasurements per kind and q. Every scenario golden depends
    // on the exact per-qubit draw sequence (and on zero-rate calls
    // drawing nothing), so any reordering of draws must fail here.
    struct Pin
    {
        NoiseKind kind;
        double q;
        std::uint64_t z, x, syndrome, next;
    };
    const Pin pins[] = {
        {NoiseKind::Dephasing, 0.0, 0xb6438d161ec51f11ull,
         0x21f35ef63b944945ull, 0xb7f64f7b0b03f0a5ull,
         0x92df79e4cdb9d8c1ull},
        {NoiseKind::Dephasing, 0.03, 0x0ef7106445496a10ull,
         0x21f35ef63b944945ull, 0xbbb50588c42492c7ull,
         0x88cb38d1f6737159ull},
        {NoiseKind::Depolarizing, 0.0, 0xc61a8e3e38301c9cull,
         0xf56921cdefd5ca4bull, 0x0e67f1b30ea5830full,
         0x7e460ef14abde1fbull},
        {NoiseKind::Depolarizing, 0.03, 0x716b1f35f6ac59dfull,
         0xac9e0cea4ad74447ull, 0xb7efe446ec90e890ull,
         0x307da2f72234523eull},
        {NoiseKind::Biased, 0.0, 0xfae6492b7642db8cull,
         0xa3cf29dd8239f9fdull, 0x521bad5cfa18c800ull,
         0xc3899ef27d33f245ull},
        {NoiseKind::Biased, 0.03, 0x47deb2c25a870f8full,
         0xb974c05072ce3860ull, 0xcd256bb27a791c6aull,
         0x4b00a1bb99385b3full},
        {NoiseKind::Erasure, 0.0, 0xada98a5446bdefc8ull,
         0xf6a5532921fc0984ull, 0xff474c24bdd742a4ull,
         0x7e460ef14abde1fbull},
        {NoiseKind::Erasure, 0.03, 0xadc26cc0ab5ab751ull,
         0x224eb4d70af3609bull, 0x3d95a0a5df3b0277ull,
         0x307da2f72234523eull},
    };
    constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;
    const SurfaceLattice lat(5);
    std::size_t checked = 0;
    for (NoiseKind kind : noiseKindRegistry())
        for (double q : {0.0, 0.03}) {
            NoiseSpec spec;
            spec.kind = kind;
            spec.q = q;
            const NoiseModel model(spec, 0.04);
            Rng rng(0x5eed);
            ErrorState state(lat);
            Syndrome synZ(lat, ErrorType::Z), synX(lat, ErrorType::X);
            std::uint64_t syndrome = kBasis;
            for (int round = 0; round < 50; ++round) {
                model.sample(rng, state);
                extractSyndromeInto(state, ErrorType::Z, synZ);
                model.flipMeasurements(rng, synZ);
                extractSyndromeInto(state, ErrorType::X, synX);
                model.flipMeasurements(rng, synX);
                syndrome = fold(fold(syndrome, synZ.bits()), synX.bits());
            }
            const std::string label =
                noiseKindName(kind) + " q=" + std::to_string(q);
            ASSERT_LT(checked, std::size(pins)) << label;
            const Pin &pin = pins[checked++];
            ASSERT_TRUE(pin.kind == kind && pin.q == q) << label;
            EXPECT_EQ(fold(kBasis, state.bits(ErrorType::Z)), pin.z)
                << label;
            EXPECT_EQ(fold(kBasis, state.bits(ErrorType::X)), pin.x)
                << label;
            EXPECT_EQ(syndrome, pin.syndrome) << label;
            EXPECT_EQ(rng.next(), pin.next) << label;

            // p = 0 draws nothing either.
            Rng quiet(0x5eed), fresh(0x5eed);
            ErrorState clean(lat);
            NoiseModel(spec, 0.0).sample(quiet, clean);
            EXPECT_EQ(clean.weight(), 0) << label;
            EXPECT_EQ(quiet.next(), fresh.next()) << label;
        }
    EXPECT_EQ(checked, std::size(pins));
}

TEST(NoiseSpec, FromSpecDispatchesEveryKind)
{
    for (NoiseKind kind : noiseKindRegistry()) {
        NoiseSpec spec;
        spec.kind = kind;
        const NoiseModel model(spec, 0.04);
        // Only the pure-dephasing kind is X-free.
        EXPECT_EQ(model.producesX(), kind != NoiseKind::Dephasing)
            << noiseKindName(kind);
    }
}

TEST(NoiseSpec, RegistryNamesAreUniqueAndNonEmpty)
{
    const auto &kinds = noiseKindRegistry();
    EXPECT_EQ(kinds.size(), 4u);
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        EXPECT_FALSE(noiseKindName(kinds[i]).empty());
        for (std::size_t j = i + 1; j < kinds.size(); ++j)
            EXPECT_NE(noiseKindName(kinds[i]),
                      noiseKindName(kinds[j]));
    }
}

TEST(NoiseSpec, CarriesMeasurementRateIntoModels)
{
    const NoiseSpec spec = NoiseSpec::biased(8.0).withQ(0.015);
    const NoiseModel model(spec, 0.02);
    EXPECT_DOUBLE_EQ(model.measurementFlipRate(), 0.015);
}

TEST(NoiseModelDeath, RejectsBadRates)
{
    EXPECT_DEATH(NoiseModel::dephasing(-0.1), "p out of");
    EXPECT_DEATH(NoiseModel::depolarizing(1.5), "p out of");
    EXPECT_DEATH(NoiseModel::biased(0.1, -1.0), "eta");
    EXPECT_DEATH(NoiseModel::erasure(2.0), "p out of");
    EXPECT_DEATH(NoiseModel::dephasing(0.1, -0.5), "q out of");
}

} // namespace
} // namespace nisqpp
