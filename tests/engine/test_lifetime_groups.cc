/**
 * @file Lifetime sweeps run a lattice's shards as the refilled lanes of
 * one mesh decoder. The merged results are pinned to literal
 * fingerprints that were computed when every shard still ran its own
 * one-lane simulator, and they must not depend on the thread count or
 * the lane word width.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "common/simd.hh"
#include "sim/experiment.hh"

namespace nisqpp {
namespace {

/** FNV-1a step over one 64-bit value. */
std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    return h;
}

std::uint64_t
mixText(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ull;
    return mix(h, s.size());
}

/**
 * Everything a cell's deterministic output depends on: counts, the
 * bits of the cycle statistics, the histogram and every unmasked
 * metric (engine.* and decoder.mesh.* counters).
 */
std::uint64_t
fingerprint(const SweepResult &result)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &row : result.cells) {
        for (const MonteCarloResult &c : row) {
            h = mix(h, c.trials);
            h = mix(h, c.failures);
            h = mix(h, c.syndromeResidualFailures);
            h = mix(h, c.cycles.count());
            h = mix(h, std::bit_cast<std::uint64_t>(c.cycles.mean()));
            h = mix(h,
                    std::bit_cast<std::uint64_t>(c.cycles.variance()));
            h = mix(h, std::bit_cast<std::uint64_t>(c.cycles.min()));
            h = mix(h, std::bit_cast<std::uint64_t>(c.cycles.max()));
            h = mix(h, c.cycleHistogram.total());
            h = mix(h, c.cycleHistogram.overflow());
            for (std::size_t b = 0; b < c.cycleHistogram.numBins(); ++b)
                h = mix(h, c.cycleHistogram.bin(b));
            c.metrics.forEachScalar([&](const std::string &name, bool,
                                        std::uint64_t value) {
                if (obs::maskedName(name))
                    return;
                h = mixText(h, name);
                h = mix(h, value);
            });
        }
    }
    return h;
}

/**
 * Three lattices x three rates, 16 shards a cell. At d = 3, p = 0.12
 * the failure target trips after a few shards (an early-stopped
 * cell); every other cell runs its whole budget.
 */
SweepConfig
pinnedSweep()
{
    SweepConfig config;
    config.distances = {3, 5, 7};
    config.physicalRates = {0.02, 0.06, 0.12};
    config.lifetimeMode = true;
    config.stopRule = {256, 2048, 150};
    config.seed = 0x11fe5eedULL;
    return config;
}

EngineOptions
pinnedOptions(int threads)
{
    EngineOptions options;
    options.threads = threads;
    options.shardTrials = 128;
    return options;
}

/** Restores the process-wide lane width on scope exit. */
struct WidthGuard
{
    simd::Width saved = simd::activeWidth();
    ~WidthGuard() { simd::setActiveWidth(saved); }
};

TEST(LifetimeGroups, DephasingSweepMatchesPinnedFingerprint)
{
    // 48 shards a lattice: one thread packs every lattice; four
    // threads may leave the largest one decoder per shard (d = 7 at
    // 512-bit words).
    const SweepConfig config = pinnedSweep();
    const auto factory = meshDecoderFactory(MeshConfig::finalDesign());
    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const SweepResult result =
            Engine(pinnedOptions(threads)).runSweep(config, factory);
        EXPECT_LT(result.cells[0][2].trials, 2048u); // the early stop
        EXPECT_EQ(result.cells[2][0].trials, 2048u);
        EXPECT_EQ(fingerprint(result), 0xd3ff7e10c9b2ef5bull);
    }
}

TEST(LifetimeGroups, DepolarizingSweepMatchesPinnedFingerprint)
{
    // 24 shards a lattice: packed at the scalar width (9 and 5 lanes),
    // one decoder per shard at the widest.
    WidthGuard guard;
    SweepConfig config = pinnedSweep();
    config.distances = {3, 5};
    config.noise = NoiseSpec::depolarizing();
    config.stopRule = {256, 1024, 1u << 30};
    const auto factory = meshDecoderFactory(MeshConfig::finalDesign());
    for (simd::Width w : {simd::Width::Scalar, simd::Width::V512}) {
        simd::setActiveWidth(w);
        SCOPED_TRACE(simd::widthName(w));
        EXPECT_EQ(fingerprint(Engine(pinnedOptions(3))
                                  .runSweep(config, factory)),
                  0x37b6423293c8fbebull);
    }
}

TEST(LifetimeGroups, SweepIsThreadAndWidthInvariant)
{
    WidthGuard guard;
    const SweepConfig config = pinnedSweep();
    const auto factory = meshDecoderFactory(MeshConfig::finalDesign());
    simd::setActiveWidth(simd::Width::Scalar);
    const std::uint64_t expected =
        fingerprint(Engine(pinnedOptions(1)).runSweep(config, factory));
    for (simd::Width w : {simd::Width::Scalar, simd::Width::V256,
                          simd::Width::V512}) {
        simd::setActiveWidth(w);
        for (int threads : {1, 2, 4}) {
            SCOPED_TRACE(std::string("width=") + simd::widthName(w) +
                         " threads=" + std::to_string(threads));
            EXPECT_EQ(fingerprint(Engine(pinnedOptions(threads))
                                      .runSweep(config, factory)),
                      expected);
        }
    }
}

} // namespace
} // namespace nisqpp
