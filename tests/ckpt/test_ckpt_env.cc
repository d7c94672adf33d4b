/** @file NISQPP_CKPT_INTERVAL environment validation through the knob
 * table's env reader: malformed cadences must warn and keep the
 * previous setting, exactly like NISQPP_TRIALS and NISQPP_BATCH. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "ckpt/checkpoint.hh"
#include "engine/knobs.hh"

namespace nisqpp {
namespace {

/** Scoped NISQPP_CKPT_INTERVAL override restoring the prior value. */
class IntervalEnv
{
  public:
    explicit IntervalEnv(const char *value)
    {
        const char *prior = std::getenv("NISQPP_CKPT_INTERVAL");
        if (prior) {
            saved_ = prior;
            hadValue_ = true;
        }
        if (value)
            setenv("NISQPP_CKPT_INTERVAL", value, 1);
        else
            unsetenv("NISQPP_CKPT_INTERVAL");
    }
    ~IntervalEnv()
    {
        if (hadValue_)
            setenv("NISQPP_CKPT_INTERVAL", saved_.c_str(), 1);
        else
            unsetenv("NISQPP_CKPT_INTERVAL");
    }

  private:
    std::string saved_;
    bool hadValue_ = false;
};

/** The interval after the env reader runs over @p before. */
std::size_t
intervalAfterEnv(std::size_t before)
{
    CliArgs args;
    args.options.checkpointInterval = before;
    applyEnv(args, "");
    return args.options.checkpointInterval;
}

TEST(CkptIntervalEnv, UnsetKeepsFallback)
{
    IntervalEnv env(nullptr);
    EXPECT_EQ(intervalAfterEnv(32), 32u);
    EXPECT_EQ(intervalAfterEnv(7), 7u);
}

TEST(CkptIntervalEnv, ValidValueIsUsed)
{
    IntervalEnv env("128");
    EXPECT_EQ(intervalAfterEnv(32), 128u);
}

TEST(CkptIntervalEnv, OneIsValid)
{
    IntervalEnv env("1");
    EXPECT_EQ(intervalAfterEnv(32), 1u);
}

TEST(CkptIntervalEnv, MaxIsValid)
{
    IntervalEnv env(
        std::to_string(ckpt::kMaxCheckpointInterval).c_str());
    EXPECT_EQ(intervalAfterEnv(32),
              ckpt::kMaxCheckpointInterval);
}

TEST(CkptIntervalEnv, ExponentNotationIsAcceptedWhenIntegral)
{
    // The shared integer kind accepts integral exponent notation at
    // every knob that uses it.
    IntervalEnv env("1e3");
    EXPECT_EQ(intervalAfterEnv(32), 1000u);
}

TEST(CkptIntervalEnv, ZeroRejectedKeepsPrevious)
{
    IntervalEnv env("0");
    EXPECT_EQ(intervalAfterEnv(32), 32u);
}

TEST(CkptIntervalEnv, NegativeRejectedKeepsPrevious)
{
    IntervalEnv env("-4");
    EXPECT_EQ(intervalAfterEnv(32), 32u);
}

TEST(CkptIntervalEnv, FractionalRejectedKeepsPrevious)
{
    IntervalEnv env("2.5");
    EXPECT_EQ(intervalAfterEnv(32), 32u);
}

TEST(CkptIntervalEnv, NonNumericRejectedKeepsPrevious)
{
    IntervalEnv env("often");
    EXPECT_EQ(intervalAfterEnv(32), 32u);
}

TEST(CkptIntervalEnv, TrailingJunkRejectedKeepsPrevious)
{
    IntervalEnv env("12x");
    EXPECT_EQ(intervalAfterEnv(32), 32u);
}

TEST(CkptIntervalEnv, AboveMaxRejectedKeepsPrevious)
{
    IntervalEnv env("1000000001");
    EXPECT_EQ(intervalAfterEnv(32), 32u);
}

} // namespace
} // namespace nisqpp
