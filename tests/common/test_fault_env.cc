/**
 * @file Shared fault-directive env parsing: the strict knob kinds, the
 * NISQPP_FAULT_INJECT write-fault plan and the NISQPP_STREAM_FAULTS
 * rows of the knob table all follow the warn-and-ignore contract
 * (malformed value -> warning, configuration untouched).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "common/knob.hh"
#include "engine/knobs.hh"
#include "faults/fault_plan.hh"

namespace nisqpp {
namespace {

/** Scoped env override restoring the prior value (ckpt-test idiom). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *prior = std::getenv(name);
        if (prior) {
            saved_ = prior;
            hadValue_ = true;
        }
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (hadValue_)
            setenv(name_.c_str(), saved_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string saved_;
    bool hadValue_ = false;
};

/** The directive-list kind as an out-param predicate. */
bool
splitDirectives(const std::string &text,
                std::vector<knob::Directive> &out)
{
    knob::Value v;
    const bool ok = knob::parse({knob::Kind::List}, text, v).empty();
    if (ok)
        out = v.list;
    return ok;
}

/** The strict count kind: a decimal seed of at least 1. */
bool
parseCount(const std::string &text, std::uint64_t &out)
{
    knob::Value v;
    const bool ok = knob::parse({knob::Kind::Seed, 1.0}, text, v).empty();
    if (ok)
        out = v.integer;
    return ok;
}

/** The strict fraction kind: a real in [0, 1]. */
bool
parseRate(const std::string &text, double &out)
{
    knob::Value v;
    const bool ok =
        knob::parse({knob::Kind::Real, 0.0, 1.0}, text, v).empty();
    if (ok)
        out = v.number;
    return ok;
}

/** NISQPP_STREAM_FAULTS through the knob table's env reader, applied
 *  to @p spec for a fault_sweep run; true when the fault point landed. */
bool
streamFaultsFromEnv(faults::FaultSpec &spec)
{
    CliArgs args;
    args.options.faultSpec = spec;
    applyEnv(args, "fault_sweep");
    spec = args.options.faultSpec;
    return args.options.faultGiven;
}

TEST(FaultEnvSplit, WellFormedListSplits)
{
    std::vector<knob::Directive> out;
    ASSERT_TRUE(splitDirectives("a=1,bb=0.5,c=x", out));
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].key, "a");
    EXPECT_EQ(out[0].value, "1");
    EXPECT_EQ(out[1].key, "bb");
    EXPECT_EQ(out[1].value, "0.5");
    EXPECT_EQ(out[2].key, "c");
    EXPECT_EQ(out[2].value, "x");
}

TEST(FaultEnvSplit, MalformedTokensRejected)
{
    std::vector<knob::Directive> out;
    EXPECT_FALSE(splitDirectives("", out));
    EXPECT_FALSE(splitDirectives("noequals", out));
    EXPECT_FALSE(splitDirectives("=1", out));
    EXPECT_FALSE(splitDirectives("a=", out));
    EXPECT_FALSE(splitDirectives("a=1=2", out));
    EXPECT_FALSE(splitDirectives("a=1,,b=2", out));
    EXPECT_FALSE(splitDirectives("a=1,b=2,", out));
}

TEST(FaultEnvParse, CountIsStrictDigitsOnly)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseCount("7", v));
    EXPECT_EQ(v, 7u);
    EXPECT_TRUE(parseCount("1000000", v));
    EXPECT_EQ(v, 1000000u);
    EXPECT_FALSE(parseCount("", v));
    EXPECT_FALSE(parseCount("0", v));
    EXPECT_FALSE(parseCount("-3", v));
    EXPECT_FALSE(parseCount("3.5", v));
    EXPECT_FALSE(parseCount("12x", v));
    EXPECT_FALSE(parseCount(" 4", v));
}

TEST(FaultEnvParse, RateIsStrictUnitInterval)
{
    double v = -1.0;
    EXPECT_TRUE(parseRate("0", v));
    EXPECT_DOUBLE_EQ(v, 0.0);
    EXPECT_TRUE(parseRate("0.25", v));
    EXPECT_DOUBLE_EQ(v, 0.25);
    EXPECT_TRUE(parseRate("1", v));
    EXPECT_DOUBLE_EQ(v, 1.0);
    EXPECT_TRUE(parseRate("1e-2", v));
    EXPECT_DOUBLE_EQ(v, 0.01);
    EXPECT_FALSE(parseRate("", v));
    EXPECT_FALSE(parseRate("1.5", v));
    EXPECT_FALSE(parseRate("-0.1", v));
    EXPECT_FALSE(parseRate("nan", v));
    EXPECT_FALSE(parseRate("inf", v));
    EXPECT_FALSE(parseRate("0.5x", v));
}

TEST(WriteFaultEnv, ParsesKillAndTear)
{
    {
        ScopedEnv env("NISQPP_FAULT_INJECT", "kill-after=3");
        const ckpt::WriteFaultPlan plan =
            ckpt::writeFaultPlanFromEnv();
        EXPECT_EQ(plan.mode, ckpt::WriteFaultMode::Kill);
        EXPECT_EQ(plan.afterWrites, 3u);
    }
    {
        ScopedEnv env("NISQPP_FAULT_INJECT", "tear-after=12");
        const ckpt::WriteFaultPlan plan =
            ckpt::writeFaultPlanFromEnv();
        EXPECT_EQ(plan.mode, ckpt::WriteFaultMode::Tear);
        EXPECT_EQ(plan.afterWrites, 12u);
    }
}

TEST(WriteFaultEnv, UnsetOrMalformedDisables)
{
    const char *bad[] = {"explode-after=3", "kill-after=",
                         "kill-after=0",    "kill-after=2.5",
                         "kill-after=9x",   "tear-after=-1"};
    {
        ScopedEnv env("NISQPP_FAULT_INJECT", nullptr);
        EXPECT_EQ(ckpt::writeFaultPlanFromEnv().mode,
                  ckpt::WriteFaultMode::None);
    }
    for (const char *value : bad) {
        ScopedEnv env("NISQPP_FAULT_INJECT", value);
        const ckpt::WriteFaultPlan plan =
            ckpt::writeFaultPlanFromEnv();
        EXPECT_EQ(plan.mode, ckpt::WriteFaultMode::None) << value;
        EXPECT_EQ(plan.afterWrites, 0u) << value;
    }
}

TEST(StreamFaultEnv, UnsetLeavesSpecAndReportsAbsent)
{
    ScopedEnv env("NISQPP_STREAM_FAULTS", nullptr);
    faults::FaultSpec spec;
    EXPECT_FALSE(streamFaultsFromEnv(spec));
    EXPECT_FALSE(spec.any());
}

TEST(StreamFaultEnv, WellFormedListUpdatesEveryKnob)
{
    ScopedEnv env("NISQPP_STREAM_FAULTS",
                  "drop=0.1,corrupt=0.05,dup=0.02,delay=0.2,"
                  "delay-cycles=5,stall=0.3,stall-factor=2.5,"
                  "fail=0.01,seed=99");
    faults::FaultSpec spec;
    ASSERT_TRUE(streamFaultsFromEnv(spec));
    EXPECT_DOUBLE_EQ(spec.dropRate, 0.1);
    EXPECT_DOUBLE_EQ(spec.corruptRate, 0.05);
    EXPECT_DOUBLE_EQ(spec.duplicateRate, 0.02);
    EXPECT_DOUBLE_EQ(spec.delayRate, 0.2);
    EXPECT_EQ(spec.delayCycles, 5);
    EXPECT_DOUBLE_EQ(spec.stallRate, 0.3);
    EXPECT_DOUBLE_EQ(spec.stallFactor, 2.5);
    EXPECT_DOUBLE_EQ(spec.decodeFailRate, 0.01);
    EXPECT_EQ(spec.seed, 99u);
}

TEST(StreamFaultEnv, MalformedDirectiveLeavesSpecUntouched)
{
    // Two-phase apply: the good leading directive must not land when a
    // later one is bad (half-applied env vars are worse than ignored).
    const char *bad[] = {"drop=0.1,corrupt=2.0", "drop=abc",
                         "unknown=0.1",          "drop",
                         "delay-cycles=0",       "stall-factor=0.5",
                         "seed=0"};
    for (const char *value : bad) {
        ScopedEnv env("NISQPP_STREAM_FAULTS", value);
        faults::FaultSpec spec;
        EXPECT_FALSE(streamFaultsFromEnv(spec)) << value;
        EXPECT_FALSE(spec.any()) << value;
        EXPECT_EQ(spec.seed, faults::FaultSpec{}.seed) << value;
    }
}

} // namespace
} // namespace nisqpp
