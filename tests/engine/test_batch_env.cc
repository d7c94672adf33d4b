/** @file NISQPP_BATCH environment validation through the knob table's
 * env reader: malformed lane counts must warn and keep the previous
 * setting, exactly like the NISQPP_TRIALS multiplier. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "engine/knobs.hh"

namespace nisqpp {
namespace {

/** Scoped NISQPP_BATCH override restoring the prior value on exit. */
class BatchEnv
{
  public:
    explicit BatchEnv(const char *value)
    {
        const char *prior = std::getenv("NISQPP_BATCH");
        if (prior) {
            saved_ = prior;
            hadValue_ = true;
        }
        if (value)
            setenv("NISQPP_BATCH", value, 1);
        else
            unsetenv("NISQPP_BATCH");
    }
    ~BatchEnv()
    {
        if (hadValue_)
            setenv("NISQPP_BATCH", saved_.c_str(), 1);
        else
            unsetenv("NISQPP_BATCH");
    }

  private:
    std::string saved_;
    bool hadValue_ = false;
};

/** The lane count after the env reader runs over @p before. */
std::size_t
lanesAfterEnv(std::size_t before)
{
    CliArgs args;
    args.options.batchLanes = before;
    applyEnv(args, "");
    return args.options.batchLanes;
}

TEST(BatchEnv, UnsetKeepsFallback)
{
    BatchEnv env(nullptr);
    EXPECT_EQ(lanesAfterEnv(1), 1u);
    EXPECT_EQ(lanesAfterEnv(64), 64u);
}

TEST(BatchEnv, ValidValueIsUsed)
{
    BatchEnv env("256");
    EXPECT_EQ(lanesAfterEnv(1), 256u);
}

TEST(BatchEnv, OneIsValid)
{
    BatchEnv env("1");
    EXPECT_EQ(lanesAfterEnv(64), 1u);
}

TEST(BatchEnv, MaxIsValid)
{
    BatchEnv env(std::to_string(kMaxBatchLanes).c_str());
    EXPECT_EQ(lanesAfterEnv(1), kMaxBatchLanes);
}

TEST(BatchEnv, ExponentNotationIsAcceptedWhenIntegral)
{
    // The integer kind accepts integral exponent notation, so --batch
    // and this twin agree on it.
    BatchEnv env("1e2");
    EXPECT_EQ(lanesAfterEnv(1), 100u);
}

TEST(BatchEnv, ZeroRejectedKeepsPrevious)
{
    BatchEnv env("0");
    EXPECT_EQ(lanesAfterEnv(32), 32u);
}

TEST(BatchEnv, NegativeRejectedKeepsPrevious)
{
    BatchEnv env("-3");
    EXPECT_EQ(lanesAfterEnv(32), 32u);
}

TEST(BatchEnv, NonNumericRejectedKeepsPrevious)
{
    BatchEnv env("lots");
    EXPECT_EQ(lanesAfterEnv(32), 32u);
}

TEST(BatchEnv, TrailingGarbageRejectedKeepsPrevious)
{
    BatchEnv env("64x");
    EXPECT_EQ(lanesAfterEnv(32), 32u);
}

TEST(BatchEnv, FractionalRejectedKeepsPrevious)
{
    BatchEnv env("3.5");
    EXPECT_EQ(lanesAfterEnv(32), 32u);
}

TEST(BatchEnv, AbsurdRejectedKeepsPrevious)
{
    BatchEnv env("99999999");
    EXPECT_EQ(lanesAfterEnv(32), 32u);
}

TEST(BatchEnv, InfinityRejectedKeepsPrevious)
{
    BatchEnv env("inf");
    EXPECT_EQ(lanesAfterEnv(32), 32u);
}

} // namespace
} // namespace nisqpp
