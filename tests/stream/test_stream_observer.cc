/**
 * @file
 * Observer contract of runStream: the hook fires exactly once per
 * produced round, in round order, and always sees the syndrome the
 * producer *emitted* — never the corrupted or carried-forward copy the
 * consumer may have decoded instead — together with the correction
 * that was actually committed (empty when nothing landed).
 *
 * The oracle is an independent SyndromeStream on the same seed: its
 * error draws do not depend on the corrections, so re-emitting round k
 * after applying every observed correction of rounds < k must
 * reproduce the observed syndrome bit for bit.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "faults/fault_plan.hh"
#include "noise/noise_model.hh"
#include "sim/experiment.hh"
#include "stream/stream_sim.hh"
#include "stream/syndrome_stream.hh"
#include "surface/lattice.hh"

namespace nisqpp {
namespace {

constexpr std::size_t kRounds = 300;

/** Run @p config and check every observer callback against the oracle. */
StreamingResult
expectObserverContract(const StreamConfig &config,
                       const std::string &label)
{
    const NoiseModel model = NoiseModel::dephasing(
        config.physicalRate, config.measurementFlipRate);
    SyndromeStream oracle(*config.lattice, model, ErrorType::Z,
                          config.seed, config.syndromeCycleNs);
    std::size_t calls = 0;
    const StreamObserver observer = [&](std::size_t round,
                                        const Syndrome &syndrome,
                                        const Correction &committed) {
        EXPECT_EQ(round, calls) << label;
        ++calls;
        EXPECT_TRUE(syndrome == oracle.emit())
            << label << ": round " << round
            << " observed a syndrome other than the emitted one";
        committed.applyTo(oracle.state(), ErrorType::Z);
    };
    const auto decoder =
        decoderFamilies()[decoderFamilyIndex("union_find")].factory(
            *config.lattice, ErrorType::Z);
    const StreamingResult r =
        runStream(config, *decoder, nullptr, &observer);
    EXPECT_EQ(calls, kRounds) << label;
    EXPECT_EQ(r.rounds, kRounds) << label;
    return r;
}

StreamConfig
denseFaultMix(const SurfaceLattice &lattice, faults::ShedMode mode)
{
    StreamConfig config;
    config.lattice = &lattice;
    config.physicalRate = 0.05;
    config.rounds = kRounds;
    config.seed = 0x0b5e7ULL;
    config.latency = StreamLatencyModel::forFamily("union_find", 3);
    config.faults.dropRate = 0.2;
    config.faults.corruptRate = 0.2;
    config.faults.duplicateRate = 0.1;
    config.faults.delayRate = 0.1;
    config.faults.stallRate = 0.2;
    config.faults.decodeFailRate = 0.1;
    // No parity: corruptions are decoded as-is, drops carry forward.
    config.recovery.carryForward = true;
    config.recovery.shedThreshold = 6;
    config.recovery.shedMode = mode;
    return config;
}

TEST(StreamObserver, DropOldestFaultMixObservesEveryEmittedRound)
{
    SurfaceLattice lattice(3);
    const StreamingResult r = expectObserverContract(
        denseFaultMix(lattice, faults::ShedMode::DropOldest),
        "drop-oldest");
    // The mix must actually exercise the rounds whose decode input is
    // not the emitted syndrome, or whose decode never runs.
    EXPECT_GT(r.faults.corruptDecodes, 0u);
    EXPECT_GT(r.faults.carriedForward, 0u);
    EXPECT_GT(r.faults.shedRounds, 0u);
    EXPECT_GT(r.faults.decodeFailures, 0u);
}

TEST(StreamObserver, XorMergeFaultMixObservesEveryEmittedRound)
{
    SurfaceLattice lattice(3);
    const StreamingResult r = expectObserverContract(
        denseFaultMix(lattice, faults::ShedMode::XorMerge), "xor-merge");
    EXPECT_GT(r.faults.corruptDecodes, 0u);
    EXPECT_GT(r.faults.carriedForward, 0u);
    EXPECT_GT(r.faults.mergedRounds, 0u);
}

TEST(StreamObserver, WindowedRunObservesEveryEmittedRound)
{
    SurfaceLattice lattice(3);
    StreamConfig config;
    config.lattice = &lattice;
    config.physicalRate = 0.03;
    config.measurementFlipRate = 0.03;
    config.windowRounds = 3;
    config.rounds = kRounds;
    config.seed = 0x0b5e8ULL;
    config.latency = StreamLatencyModel::forFamily("union_find", 3);
    const StreamingResult r = expectObserverContract(config, "windowed");
    EXPECT_EQ(r.windows, kRounds / 3);
}

} // namespace
} // namespace nisqpp
