/**
 * @file runLifetimes() against an independent oracle: each lifetime
 * replayed alone on fresh mesh decoders through the plain scalar
 * decode() (sample, extract, decode, apply, crossing parity), per
 * lifetime. Trials, failures, the bits of the cycle statistics, the
 * histogram and the decoder.mesh.* counters must all agree, whatever
 * the lane count, the refill pattern, the mesh variant, the lane word
 * width or the exit path.
 */

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "common/simd.hh"
#include "core/mesh_decoder.hh"
#include "decoders/workspace.hh"
#include "sim/monte_carlo.hh"
#include "surface/logical.hh"

namespace nisqpp {
namespace {

/** One lifetime of a test pool. */
struct Spec
{
    double p;
    std::uint64_t seed;
    std::size_t rounds;
};

/** What one lifetime produced: its result and its mesh counters. */
struct Outcome
{
    MonteCarloResult result;
    obs::MetricSet mesh;
};

/** Cycle cap and quiescence window to force on every decoder (0: none). */
struct Limits
{
    int cap = 0;
    int window = 0;
};

struct PoolCase
{
    int d = 3;
    MeshConfig config = MeshConfig::finalDesign();
    bool depolarizing = false;
    Limits limits{};
};

NoiseModel
modelFor(const PoolCase &setup, double p)
{
    return setup.depolarizing ? NoiseModel::depolarizing(p)
                              : NoiseModel::dephasing(p);
}

std::unique_ptr<MeshDecoder>
makeDecoder(const SurfaceLattice &lat, ErrorType type, const PoolCase &setup)
{
    auto dec = std::make_unique<MeshDecoder>(lat, type, setup.config);
    if (setup.limits.cap > 0)
        dec->setLimitsForTest(setup.limits.cap, setup.limits.window);
    return dec;
}

void
recordCycles(const MeshDecodeStats &stats, MonteCarloResult &acc)
{
    acc.cycles.add(stats.cycles);
    acc.cycleHistogram.add(static_cast<std::size_t>(stats.cycles));
}

/** The oracle: one lifetime alone, fresh decoders, scalar decode(). */
Outcome
replayAlone(const SurfaceLattice &lat, const PoolCase &setup, const Spec &s)
{
    const NoiseModel model = modelFor(setup, s.p);
    auto z = makeDecoder(lat, ErrorType::Z, setup);
    std::unique_ptr<MeshDecoder> x;
    if (setup.depolarizing)
        x = makeDecoder(lat, ErrorType::X, setup);
    TrialWorkspace ws;
    Rng rng(s.seed);
    ErrorState state(lat);
    Syndrome synZ(lat, ErrorType::Z), synX(lat, ErrorType::X);
    bool zParity = false, xParity = false;

    Outcome out;
    out.result.cycleHistogram =
        Histogram(static_cast<std::size_t>(128 * (lat.gridSize() + 2)));
    for (std::size_t r = 0; r < s.rounds; ++r) {
        model.sample(rng, state);
        extractSyndromeInto(state, ErrorType::Z, synZ);
        z->decode(synZ, ws);
        ws.correction.applyTo(state, ErrorType::Z);
        if (x) {
            extractSyndromeInto(state, ErrorType::X, synX);
            x->decode(synX, ws);
            ws.correction.applyTo(state, ErrorType::X);
        }
        recordCycles(z->lastStats(), out.result);
        bool parity = crossingParity(state, ErrorType::Z);
        bool failed = parity != zParity;
        zParity = parity;
        if (x) {
            recordCycles(x->lastStats(), out.result);
            parity = crossingParity(state, ErrorType::X);
            failed |= parity != xParity;
            xParity = parity;
        }
        ++out.result.trials;
        out.result.failures += failed ? 1 : 0;
    }
    out.result.finalize();
    z->exportMetrics(out.mesh);
    if (x)
        x->exportMetrics(out.mesh);
    return out;
}

/** The lifetimes as the lanes of one decoder pair. */
std::vector<Outcome>
runPooled(const SurfaceLattice &lat, const PoolCase &setup,
          const std::vector<Spec> &specs, int lanes)
{
    auto z = makeDecoder(lat, ErrorType::Z, setup);
    std::unique_ptr<MeshDecoder> x;
    if (setup.depolarizing)
        x = makeDecoder(lat, ErrorType::X, setup);
    TrialWorkspace ws;
    std::vector<Outcome> out(specs.size());
    std::size_t next = 0;
    runLifetimes(lat, *z, x.get(), lanes, ws,
                 [&]() -> std::optional<LifetimeJob> {
                     if (next >= specs.size())
                         return std::nullopt;
                     const std::size_t i = next++;
                     const Spec &s = specs[i];
                     return LifetimeJob{
                         modelFor(setup, s.p), s.seed,
                         StopRule{s.rounds, s.rounds, ~std::size_t{0}},
                         [&out, i](MonteCarloResult &&result,
                                   const MeshWorkCounters &work) {
                             out[i].result = std::move(result);
                             work.exportTo(out[i].mesh);
                         }};
                 });
    return out;
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

const char *const kMeshCounters[] = {
    "decoder.mesh.decodes",  "decoder.mesh.cycles",
    "decoder.mesh.pairings", "decoder.mesh.resets",
    "decoder.mesh.cycles_capped", "decoder.mesh.quiesced"};

void
expectSame(const Outcome &want, const Outcome &got)
{
    const MonteCarloResult &a = want.result, &b = got.result;
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.cycles.count(), b.cycles.count());
    EXPECT_EQ(bits(a.cycles.mean()), bits(b.cycles.mean()));
    EXPECT_EQ(bits(a.cycles.variance()), bits(b.cycles.variance()));
    EXPECT_EQ(bits(a.cycles.min()), bits(b.cycles.min()));
    EXPECT_EQ(bits(a.cycles.max()), bits(b.cycles.max()));
    ASSERT_EQ(a.cycleHistogram.numBins(), b.cycleHistogram.numBins());
    EXPECT_EQ(a.cycleHistogram.overflow(), b.cycleHistogram.overflow());
    for (std::size_t bin = 0; bin < a.cycleHistogram.numBins(); ++bin)
        EXPECT_EQ(a.cycleHistogram.bin(bin), b.cycleHistogram.bin(bin));
    for (const char *name : kMeshCounters)
        EXPECT_EQ(want.mesh.value(name), got.mesh.value(name)) << name;
}

/**
 * @p count lifetimes with mixed rates and uneven lengths (one of them
 * zero rounds), so lanes finish out of step and refill mid-flight.
 */
std::vector<Spec>
mixedSpecs(std::size_t count, std::size_t rounds)
{
    const double rates[] = {0.01, 0.04, 0.07, 0.1, 0.13};
    std::vector<Spec> specs;
    for (std::size_t i = 0; i < count; ++i)
        specs.push_back({rates[i % 5], 0x5eed0000ULL + 977 * i,
                         i == 2 ? 0 : rounds / 2 + (i * 7) % rounds});
    return specs;
}

/**
 * Pool @p specs on @p lanes lanes and compare every lifetime with its
 * oracle; returns the pooled outcomes for further checks.
 */
std::vector<Outcome>
checkPool(const PoolCase &setup, const std::vector<Spec> &specs, int lanes)
{
    SurfaceLattice lat(setup.d);
    const std::vector<Outcome> pooled = runPooled(lat, setup, specs, lanes);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("lifetime " + std::to_string(i));
        expectSame(replayAlone(lat, setup, specs[i]), pooled[i]);
    }
    return pooled;
}

int
lanesAt(const PoolCase &setup)
{
    SurfaceLattice lat(setup.d);
    return makeDecoder(lat, ErrorType::Z, setup)->lanes();
}

/** Restores the process-wide lane width on scope exit. */
struct WidthGuard
{
    simd::Width saved = simd::activeWidth();
    ~WidthGuard() { simd::setActiveWidth(saved); }
};

TEST(LifetimePool, RefillsMoreLifetimesThanLanesAtEveryDistance)
{
    for (int d : {3, 5, 7, 9}) {
        SCOPED_TRACE("d=" + std::to_string(d));
        PoolCase setup;
        setup.d = d;
        const int lanes = lanesAt(setup);
        ASSERT_GT(lanes, 1);
        checkPool(setup, mixedSpecs(2 * lanes + 3, 24), lanes);
    }
}

TEST(LifetimePool, FewerLifetimesThanLanes)
{
    for (int d : {3, 9}) {
        SCOPED_TRACE("d=" + std::to_string(d));
        PoolCase setup;
        setup.d = d;
        const int lanes = lanesAt(setup);
        checkPool(setup, mixedSpecs(lanes / 2, 40), lanes);
        // Fewer lanes than the engine has: the rest stay idle.
        checkPool(setup, mixedSpecs(7, 30), 2);
        // One lane runs on the one-lane engine.
        checkPool(setup, mixedSpecs(4, 30), 1);
    }
}

TEST(LifetimePool, EveryMeshVariant)
{
    for (const MeshConfig &config :
         {MeshConfig::baseline(), MeshConfig::withReset(),
          MeshConfig::withResetAndBoundary(), MeshConfig::finalDesign()}) {
        SCOPED_TRACE(config.label());
        PoolCase setup;
        setup.d = 5;
        setup.config = config;
        checkPool(setup, mixedSpecs(2 * lanesAt(setup) + 1, 20),
                  lanesAt(setup));
    }
}

TEST(LifetimePool, EveryLaneWordWidth)
{
    WidthGuard guard;
    for (simd::Width w : {simd::Width::Scalar, simd::Width::V256,
                          simd::Width::V512}) {
        simd::setActiveWidth(w);
        for (int d : {3, 7}) {
            SCOPED_TRACE(std::string(simd::widthName(w)) +
                         " d=" + std::to_string(d));
            PoolCase setup;
            setup.d = d;
            const int lanes = lanesAt(setup);
            checkPool(setup, mixedSpecs(lanes + 5, 20), lanes);
        }
    }
}

TEST(LifetimePool, ForcedCapAndQuiescenceExits)
{
    // A tight cap and window force both hard exits on busy syndromes;
    // the stranded hot modules carry into the next round's residual.
    for (const Limits limits : {Limits{14, 200}, Limits{400, 3}}) {
        PoolCase setup;
        setup.d = 7;
        setup.limits = limits;
        const int lanes = lanesAt(setup);
        const std::vector<Outcome> pooled =
            checkPool(setup, mixedSpecs(lanes + 4, 20), lanes);
        std::uint64_t capped = 0, quiesced = 0;
        for (const Outcome &o : pooled) {
            capped += o.mesh.value("decoder.mesh.cycles_capped");
            quiesced += o.mesh.value("decoder.mesh.quiesced");
        }
        EXPECT_GT(limits.cap < 100 ? capped : quiesced, 0u);
    }
}

TEST(LifetimePool, DepolarizingDecodesBothFamilies)
{
    for (int d : {3, 5}) {
        SCOPED_TRACE("d=" + std::to_string(d));
        PoolCase setup;
        setup.d = d;
        setup.depolarizing = true;
        const int lanes = lanesAt(setup);
        checkPool(setup, mixedSpecs(lanes + 3, 16), lanes);
    }
}

TEST(LifetimePool, SimulatorLifetimeIsOnePooledLifetime)
{
    // LifetimeSimulator's lifetime mode is the same protocol: one
    // lifetime, one lane, the caller's stop rule. Long enough that the
    // lane folds its buffered cycle counts mid-lifetime.
    SurfaceLattice lat(5);
    PoolCase setup;
    setup.d = 5;
    const Spec spec{0.06, 77, 2500};
    const NoiseModel model = NoiseModel::dephasing(spec.p);
    MeshDecoder dec(lat, ErrorType::Z);
    LifetimeSimulator sim(lat, model, dec, nullptr, spec.seed);
    sim.setLifetimeMode(true);
    Outcome got;
    got.result = sim.run({spec.rounds, spec.rounds, ~std::size_t{0}});
    dec.exportMetrics(got.mesh);
    expectSame(replayAlone(lat, setup, spec), got);
}

} // namespace
} // namespace nisqpp
