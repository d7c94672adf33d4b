/** @file Faulty-measurement windowed Monte Carlo protocol: batch-lane
 * equivalence (with mid-group early stop and the mesh's majority-vote
 * fallback), sub-threshold distance scaling, and mode guards. */

#include <gtest/gtest.h>

#include <memory>

#include "aggregates.hh"
#include "core/mesh_decoder.hh"
#include "decoders/mwpm_decoder.hh"
#include "decoders/union_find_decoder.hh"
#include "noise/noise_model.hh"
#include "sim/monte_carlo.hh"

namespace nisqpp {
namespace {

MonteCarloResult
runWindowed(const SurfaceLattice &lat, const NoiseModel &model,
            Decoder &zDec, Decoder *xDec, int windowRounds,
            std::size_t lanes, const StopRule &rule, std::uint64_t seed)
{
    LifetimeSimulator sim(lat, model, zDec, xDec, seed);
    sim.setMeasurementWindow(windowRounds);
    sim.setBatchLanes(lanes);
    return sim.run(rule);
}

MonteCarloResult
runWindowed(const SurfaceLattice &lat, const NoiseModel &model,
            Decoder &zDec, Decoder *xDec, int windowRounds,
            std::size_t lanes, std::size_t trials, std::uint64_t seed)
{
    return runWindowed(lat, model, zDec, xDec, windowRounds, lanes,
                       {trials, trials, ~std::size_t{0}}, seed);
}

TEST(WindowedSim, BatchLanesMatchScalarDephasing)
{
    SurfaceLattice lat(3);
    const NoiseModel model = NoiseModel::dephasing(0.03, 0.03);
    UnionFindDecoder scalarDec(lat, ErrorType::Z);
    UnionFindDecoder batchDec(lat, ErrorType::Z);

    const MonteCarloResult scalar =
        runWindowed(lat, model, scalarDec, nullptr, 3, 1, 400, 0xabc);
    const MonteCarloResult batched =
        runWindowed(lat, model, batchDec, nullptr, 3, 7, 400, 0xabc);

    EXPECT_EQ(scalar.trials, batched.trials);
    EXPECT_EQ(scalar.failures, batched.failures);
    EXPECT_EQ(scalar.syndromeResidualFailures,
              batched.syndromeResidualFailures);
    EXPECT_GT(scalar.trials, 0u);
}

TEST(WindowedSim, BatchLanesMatchScalarDepolarizing)
{
    // Depolarizing + q > 0 exercises both families' windows.
    SurfaceLattice lat(3);
    const NoiseModel model = NoiseModel::depolarizing(0.03, 0.02);
    MwpmDecoder scalarZ(lat, ErrorType::Z), scalarX(lat, ErrorType::X);
    MwpmDecoder batchZ(lat, ErrorType::Z), batchX(lat, ErrorType::X);

    const MonteCarloResult scalar = runWindowed(
        lat, model, scalarZ, &scalarX, 3, 1, 250, 0x77);
    const MonteCarloResult batched = runWindowed(
        lat, model, batchZ, &batchX, 3, 9, 250, 0x77);

    EXPECT_EQ(scalar.trials, batched.trials);
    EXPECT_EQ(scalar.failures, batched.failures);
    EXPECT_EQ(scalar.syndromeResidualFailures,
              batched.syndromeResidualFailures);
}

TEST(WindowedSim, EarlyStopMidGroupMatchesScalar)
{
    // The failure target trips inside a 7-lane group: the surplus
    // windows must be dropped so every aggregate matches the scalar
    // loop, which never ran them.
    SurfaceLattice lat(3);
    const NoiseModel model = NoiseModel::dephasing(0.05, 0.05);
    const StopRule rule{10, 4000, 25};
    UnionFindDecoder scalarDec(lat, ErrorType::Z);
    UnionFindDecoder batchDec(lat, ErrorType::Z);

    const MonteCarloResult scalar =
        runWindowed(lat, model, scalarDec, nullptr, 3, 1, rule, 0x51);
    ASSERT_GE(scalar.failures, 25u);
    ASSERT_LT(scalar.trials, 4000u);
    ASSERT_NE(scalar.trials % 7, 0u) << "stop must land mid-group";

    const MonteCarloResult batched =
        runWindowed(lat, model, batchDec, nullptr, 3, 7, rule, 0x51);
    expectSameAggregates(scalar, batched);
}

TEST(WindowedSim, MeshMajorityVoteBatchMatchesScalar)
{
    // The mesh has no spacetime decoder: its windows take the
    // round-majority fallback, which still leaves per-decode mesh
    // stats behind. Windowed runs record no cycle telemetry at any
    // group size.
    SurfaceLattice lat(5);
    const NoiseModel model = NoiseModel::depolarizing(0.02, 0.01);
    MeshDecoder scalarZ(lat, ErrorType::Z), scalarX(lat, ErrorType::X);
    MeshDecoder batchZ(lat, ErrorType::Z), batchX(lat, ErrorType::X);

    const MonteCarloResult scalar = runWindowed(
        lat, model, scalarZ, &scalarX, 3, 1, 300, 0x3e5);
    const MonteCarloResult batched = runWindowed(
        lat, model, batchZ, &batchX, 3, 8, 300, 0x3e5);

    expectSameAggregates(scalar, batched);
    EXPECT_EQ(scalar.trials, 300u);
    EXPECT_EQ(scalar.cycles.count(), 0u);
    EXPECT_EQ(batched.cycles.count(), 0u);

    // Both runs decoded the same windows, so the decoders' own work
    // counters agree too.
    obs::MetricSet scalarWork, batchWork;
    scalarZ.exportMetrics(scalarWork);
    scalarX.exportMetrics(scalarWork);
    batchZ.exportMetrics(batchWork);
    batchX.exportMetrics(batchWork);
    EXPECT_FALSE(scalarWork.empty());
    EXPECT_EQ(metricsJson(scalarWork), metricsJson(batchWork));
}

/**
 * The acceptance property of the faulty-measurement regime: below the
 * phenomenological threshold (~3% for p = q), windowed decoding over
 * d-round windows suppresses the logical error rate with distance for
 * both spacetime decoders. Seeds are fixed, so this is deterministic.
 */
template <typename DecoderT>
void
expectDistanceOrdering(double p, std::size_t trials)
{
    double last = 1.0;
    for (int d : {3, 5, 9}) {
        SurfaceLattice lat(d);
        const NoiseModel model = NoiseModel::dephasing(p, p);
        DecoderT dec(lat, ErrorType::Z);
        const MonteCarloResult r = runWindowed(
            lat, model, dec, nullptr, d, 1, trials, 0x5eed + d);
        EXPECT_LT(r.logicalErrorRate, last)
            << "PL failed to drop from the previous distance at d="
            << d;
        last = r.logicalErrorRate;
    }
}

TEST(WindowedSim, UnionFindSuppressesWithDistance)
{
    expectDistanceOrdering<UnionFindDecoder>(0.02, 1500);
}

TEST(WindowedSim, MwpmSuppressesWithDistance)
{
    expectDistanceOrdering<MwpmDecoder>(0.02, 700);
}

TEST(WindowedSim, PerfectMeasurementWindowStillCorrects)
{
    // q = 0 windows degenerate gracefully: every round repeats the
    // true syndrome and PL stays comparable to single-round decoding.
    SurfaceLattice lat(5);
    const NoiseModel model = NoiseModel::dephasing(0.02, 0.0);
    UnionFindDecoder dec(lat, ErrorType::Z);
    const MonteCarloResult r =
        runWindowed(lat, model, dec, nullptr, 5, 1, 500, 0x9);
    // A 5-round window accumulates ~5x the single-round error mass;
    // sub-threshold it must still decode nearly all windows.
    EXPECT_LT(r.logicalErrorRate, 0.2);
}

TEST(WindowedSimDeath, MeasurementNoiseWithoutWindowPanics)
{
    // q > 0 without a window would silently simulate q = 0 (the
    // single-round protocols never corrupt measurements).
    SurfaceLattice lat(3);
    const NoiseModel model = NoiseModel::dephasing(0.01, 0.01);
    UnionFindDecoder dec(lat, ErrorType::Z);
    LifetimeSimulator sim(lat, model, dec, nullptr, 1);
    StopRule rule{10, 10, ~std::size_t{0}};
    EXPECT_DEATH(sim.run(rule), "requires a decode window");
}

TEST(WindowedSimDeath, LifetimeModeIsMutuallyExclusive)
{
    SurfaceLattice lat(3);
    const NoiseModel model = NoiseModel::dephasing(0.01, 0.01);
    UnionFindDecoder dec(lat, ErrorType::Z);
    LifetimeSimulator sim(lat, model, dec, nullptr, 1);
    sim.setMeasurementWindow(3);
    sim.setLifetimeMode(true);
    StopRule rule{10, 10, ~std::size_t{0}};
    EXPECT_DEATH(sim.run(rule), "mutually exclusive");
}

} // namespace
} // namespace nisqpp
