/**
 * @file Knob-table contract: for every row, hostile tokens go through
 * the row's kind, its flag path and its env path, and the three agree.
 * A flag either lands an in-range value or fails with an error naming
 * the flag; an env twin either lands exactly what its kind parsed or
 * leaves every setting untouched.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/simd.hh"
#include "engine/knobs.hh"

namespace nisqpp {
namespace {

/** Scoped env override restoring the prior value (ckpt-test idiom). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value) : name_(name)
    {
        const char *prior = std::getenv(name);
        if (prior) {
            saved_ = prior;
            hadValue_ = true;
        }
        setenv(name, value.c_str(), 1);
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

std::string
numberText(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** The fixed hostile tokens plus the row's bounds +/- 1. */
std::vector<std::string>
hostileTokens(const knob::Kind &kind)
{
    std::vector<std::string> tokens{
        "",     " 4",   "nan",  "inf",
        "-0",   "1e309", "0x10", std::string(4096, '9'),
        "1,2"};
    if (kind.type == knob::Kind::Int || kind.type == knob::Kind::Real) {
        for (double bound : {kind.lo, kind.hi})
            for (double step : {-1.0, 1.0})
                tokens.push_back(numberText(bound + step));
    } else if (kind.type == knob::Kind::Seed) {
        tokens.push_back(numberText(kind.lo - 1));
        tokens.push_back(numberText(kind.lo + 1));
        tokens.push_back("18446744073709551614"); // u64 max - 1
        tokens.push_back("18446744073709551616"); // u64 max + 1
    }
    return tokens;
}

/** True when a parsed @p v lies inside @p kind's range. */
bool
inRange(const knob::Kind &kind, const knob::Value &v)
{
    const std::string choices = kind.choices ? kind.choices : "";
    if (kind.type == knob::Kind::Int)
        return v.number >= kind.lo && v.number <= kind.hi &&
               v.number == std::floor(v.number) &&
               static_cast<double>(v.integer) == v.number;
    if (kind.type == knob::Kind::Real)
        return (kind.loOpen ? v.number > kind.lo : v.number >= kind.lo) &&
               v.number <= kind.hi;
    if (kind.type == knob::Kind::Seed)
        return static_cast<double>(v.integer) >= kind.lo;
    if (kind.type == knob::Kind::Choice)
        return v.integer <= static_cast<std::uint64_t>(std::count(
                                choices.begin(), choices.end(), '|'));
    return !v.text.empty(); // Path
}

TEST(KnobContract, HostileTokensLandInRangeOrAreRejected)
{
    const simd::Width width = simd::activeWidth();
    for (const Knob &row : knobTable()) {
        if (row.kind.type == knob::Kind::Switch)
            continue;
        for (const std::string &token : hostileTokens(row.kind)) {
            SCOPED_TRACE(std::string(row.flag ? row.flag : row.env) +
                         (row.key ? std::string(" ") + row.key : "") +
                         " '" + token.substr(0, 24) + "'");
            knob::Value value;
            const bool ok = knob::parse(row.kind, token, value).empty();
            if (ok) {
                EXPECT_TRUE(inRange(row.kind, value));
            }

            // What landing the parsed value looks like: the slot set,
            // everything else at its default.
            CliArgs landed;
            if (ok && row.set)
                row.set(landed, value);
            const simd::Width landedWidth = simd::activeWidth();
            simd::setActiveWidth(width);

            if (row.flag) {
                CliArgs args;
                const std::string error = applyFlag(row, token, args);
                EXPECT_EQ(error.empty(), ok) << error;
                if (!ok) {
                    EXPECT_EQ(error.rfind(std::string(row.flag) + ": ", 0),
                              0u)
                        << error;
                    EXPECT_EQ(args, CliArgs{});
                }
                simd::setActiveWidth(width);
            }

            if (!row.env)
                continue;
            const ScopedEnv env(row.env, row.key ? std::string(row.key) +
                                                       "=" + token
                                                 : token);
            if (!row.set) {
                // Read where it is used (NISQPP_TRIALS): the reader
                // hands back the parsed value or leaves it untouched.
                knob::Value read;
                read.number = -7.0;
                EXPECT_EQ(knob::readEnv(row.env, row.kind, read), ok);
                EXPECT_EQ(read.number, ok ? value.number : -7.0);
                continue;
            }
            CliArgs args;
            applyEnv(args, row.scenario ? row.scenario : "");
            EXPECT_EQ(args, ok ? landed : CliArgs{});
            EXPECT_EQ(simd::activeWidth(), ok ? landedWidth : width);
            simd::setActiveWidth(width);
        }
    }
}

} // namespace
} // namespace nisqpp
