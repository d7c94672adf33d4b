/**
 * @file The checkpoint subsystem's headline guarantee, in process: a
 * sweep interrupted mid-flight and resumed in a fresh engine (at a
 * different thread count) produces aggregates byte-identical to a run
 * that was never interrupted, and a resumed engine refuses ledgers
 * from a different configuration.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "ckpt/checkpoint.hh"
#include "sim/experiment.hh"

namespace nisqpp {
namespace {

SweepConfig
smallSweep()
{
    SweepConfig config;
    config.distances = {3, 5};
    config.physicalRates = {0.03, 0.08};
    config.lifetimeMode = true;
    config.stopRule = {600, 600, 1u << 30};
    config.seed = 0xfeedULL;
    return config;
}

void
expectIdentical(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t di = 0; di < a.cells.size(); ++di) {
        ASSERT_EQ(a.cells[di].size(), b.cells[di].size());
        for (std::size_t pi = 0; pi < a.cells[di].size(); ++pi) {
            const MonteCarloResult &ca = a.cells[di][pi];
            const MonteCarloResult &cb = b.cells[di][pi];
            EXPECT_EQ(ca.trials, cb.trials);
            EXPECT_EQ(ca.failures, cb.failures);
            EXPECT_EQ(ca.syndromeResidualFailures,
                      cb.syndromeResidualFailures);
            EXPECT_DOUBLE_EQ(ca.logicalErrorRate, cb.logicalErrorRate);
            EXPECT_EQ(ca.cycles.count(), cb.cycles.count());
            EXPECT_DOUBLE_EQ(ca.cycles.mean(), cb.cycles.mean());
            EXPECT_DOUBLE_EQ(ca.cycles.variance(),
                             cb.cycles.variance());
            EXPECT_EQ(ca.cycleHistogram.total(),
                      cb.cycleHistogram.total());
            // Deterministic metrics ride the same ordered prefix
            // merge, so a restored partial must reproduce them too.
            EXPECT_EQ(ca.metrics.value("engine.trials"),
                      cb.metrics.value("engine.trials"));
        }
        EXPECT_EQ(a.curves[di].pl, b.curves[di].pl);
    }
}

std::string
ckptPath(const std::string &name)
{
    return testing::TempDir() + "resume_" + name;
}

/** RAII: clear interrupt flag, observer and fault cache on exit. */
struct CkptStateGuard
{
    ~CkptStateGuard()
    {
        ckpt::setWriteObserver(nullptr);
        ckpt::clearInterrupt();
        ckpt::resetFaultState();
    }
};

TEST(CheckpointResume, InterruptedSweepResumesByteIdentical)
{
    CkptStateGuard guard;
    const SweepConfig config = smallSweep();
    const auto factory = meshDecoderFactory(MeshConfig::finalDesign());

    EngineOptions base;
    base.threads = 4;
    base.shardTrials = 128; // 5 shards per cell, 20 total
    const SweepResult golden =
        Engine(base).runSweep(config, factory);

    const std::string path = ckptPath("interrupt.ckpt");
    std::remove(path.c_str());

    // Interrupt at the first write: with intervalShards = 1 the first
    // completed shard always triggers a periodic write while the
    // invocation is still active (contended later writes may be
    // skipped, so a higher trigger count would be racy). The engine
    // drains in-flight shards, persists a final ledger and throws.
    ckpt::CheckpointPolicy policy;
    policy.path = path;
    policy.intervalShards = 1;
    ckpt::setWriteObserver(
        [](std::uint64_t) { ckpt::requestInterrupt(); });
    Engine interrupted(base);
    interrupted.setCheckpointPolicy(policy);
    EXPECT_THROW(interrupted.runSweep(config, factory),
                 ckpt::InterruptedError);
    ckpt::setWriteObserver(nullptr);
    ckpt::clearInterrupt();

    // Resume in a fresh engine at a DIFFERENT thread count; the
    // result must match the uninterrupted golden run bit for bit.
    EngineOptions other = base;
    other.threads = 2;
    Engine resumed(other);
    resumed.setCheckpointPolicy(policy);
    resumed.resumeFrom(ckpt::loadCheckpoint(path));
    expectIdentical(golden, resumed.runSweep(config, factory));

    obs::MetricSet ckptMetrics;
    resumed.checkpointMetricsInto(ckptMetrics);
    EXPECT_EQ(ckptMetrics.value("ckpt.resumed"), 1u);
    EXPECT_GE(ckptMetrics.value("ckpt.writes"), 1u);
    std::remove(path.c_str());
}

TEST(CheckpointResume, CompletedCheckpointRestoresWithoutRecompute)
{
    CkptStateGuard guard;
    const SweepConfig config = smallSweep();
    const auto factory = meshDecoderFactory(MeshConfig::finalDesign());

    EngineOptions base;
    base.threads = 2;
    base.shardTrials = 128;

    const std::string path = ckptPath("complete.ckpt");
    std::remove(path.c_str());
    ckpt::CheckpointPolicy policy;
    policy.path = path;

    Engine first(base);
    first.setCheckpointPolicy(policy);
    const SweepResult golden = first.runSweep(config, factory);

    Engine second(base);
    second.resumeFrom(ckpt::loadCheckpoint(path));
    std::uint64_t writesDuringResume = 0;
    ckpt::setWriteObserver(
        [&](std::uint64_t) { ++writesDuringResume; });
    expectIdentical(golden, second.runSweep(config, factory));
    // Every invocation was restored complete: nothing is scheduled
    // and nothing is rewritten.
    EXPECT_EQ(writesDuringResume, 0u);

    obs::MetricSet ckptMetrics;
    second.checkpointMetricsInto(ckptMetrics);
    EXPECT_GE(ckptMetrics.value("ckpt.restored_shards"), 20u);
    std::remove(path.c_str());
}

TEST(CheckpointResume, ConfigMismatchIsAHardError)
{
    CkptStateGuard guard;
    const auto factory = meshDecoderFactory(MeshConfig::finalDesign());

    EngineOptions base;
    base.threads = 2;
    base.shardTrials = 128;

    const std::string path = ckptPath("mismatch.ckpt");
    std::remove(path.c_str());
    ckpt::CheckpointPolicy policy;
    policy.path = path;

    Engine writer(base);
    writer.setCheckpointPolicy(policy);
    writer.runSweep(smallSweep(), factory);

    SweepConfig different = smallSweep();
    different.seed = 0xbadfeedULL;
    Engine reader(base);
    reader.resumeFrom(ckpt::loadCheckpoint(path));
    try {
        reader.runSweep(different, factory);
        FAIL() << "mismatched checkpoint applied";
    } catch (const ckpt::CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("config mismatch"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointResume, LedgerConfigTextIsPinned)
{
    // A resume matches ledgers by this exact text, so any change to
    // describeCell's format orphans every ledger already on disk. The
    // literal includes the fixed " circuits=0" token.
    CkptStateGuard guard;
    SweepConfig config;
    config.distances = {3};
    config.physicalRates = {0.03};
    config.lifetimeMode = true;
    config.stopRule = {64, 64, 1u << 30};
    config.seed = 0xfeedULL;

    EngineOptions options;
    options.shardTrials = 64;
    const std::string path = ckptPath("pinned.ckpt");
    std::remove(path.c_str());
    ckpt::CheckpointPolicy policy;
    policy.path = path;
    Engine engine(options);
    engine.setCheckpointPolicy(policy);
    engine.runSweep(config, meshDecoderFactory(MeshConfig::finalDesign()));

    std::ifstream in(path);
    std::string line, configLine;
    while (std::getline(in, line))
        if (line.rfind("config ", 0) == 0)
            configLine = line;
    EXPECT_EQ(configLine,
              "config shardTrials=64 cells=1 | d=3 p=3f9eb851eb851eb8 "
              "noise=dephasing eta=4024000000000000 "
              "q=0000000000000000 window=0 circuits=0 lifetime=1 "
              "rule=64/64/1073741824 seed=15968248254638846696 shards=1");
    std::remove(path.c_str());
}

TEST(CheckpointResume, IncompleteInvocationMustBeLast)
{
    CkptStateGuard guard;
    ckpt::CheckpointLedger ledger;
    ledger.scope = "unit";
    ledger.invocations.resize(2);
    ledger.invocations[0].configText = "a";
    ledger.invocations[0].complete = false;
    ledger.invocations[1].configText = "b";
    ledger.invocations[1].complete = true;

    Engine engine(EngineOptions{});
    try {
        engine.resumeFrom(std::move(ledger));
        FAIL() << "malformed ledger accepted";
    } catch (const ckpt::CheckpointError &e) {
        EXPECT_NE(
            std::string(e.what()).find("incomplete but not last"),
            std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace nisqpp
