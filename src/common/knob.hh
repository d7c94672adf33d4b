/**
 * @file
 * Value kinds of the run-configuration knobs (the nisqpp_run flags and
 * their env twins) and the one environment reader. Parsing is pure: it
 * yields the value or the reason the text was rejected, which a flag
 * makes fatal and an env variable a warning that keeps the previous
 * setting. Numbers are plain decimal text (no whitespace, hex, nan or
 * inf), so a typo'd value never aliases a valid one. The knob table is
 * engine/knobs.hh; the kinds live here so ckpt/ and sim/ read their own
 * variables without depending on engine/.
 */

#ifndef NISQPP_COMMON_KNOB_HH
#define NISQPP_COMMON_KNOB_HH

#include <cstdint>
#include <string>
#include <vector>

namespace nisqpp {
namespace knob {

/** A value kind with its range. */
struct Kind
{
    enum Type
    {
        Switch, ///< no value
        Int,    ///< integral number in [lo, hi], lo >= 0; "1e2" counts
        Real,   ///< number in [lo, hi], or (lo, hi] when loOpen
        Seed,   ///< unsigned 64-bit integer, decimal digits only, >= lo
        Choice, ///< one of the '|'-separated choices; value = index
        Path,   ///< any non-empty text
        List    ///< "k1=v1,k2=v2": one '=' between non-empty sides
    };
    Type type = Switch;
    double lo = 0.0;
    double hi = 0.0;
    bool loOpen = false;
    const char *choices = nullptr; ///< Choice: "a|b|c"
    const char *meta = nullptr;    ///< --help placeholder override
};

/** One "key=value" entry of a List value. */
struct Directive
{
    std::string key;
    std::string value;
};

/** A parsed value, in the member its kind fills. */
struct Value
{
    double number = 0.0;         ///< Int, Real
    std::uint64_t integer = 0;   ///< Int, Seed; Choice index
    std::string text;            ///< Path; List source text
    std::vector<Directive> list; ///< List
};

/** Parse @p text as @p kind into @p out; returns why the text was
 *  rejected (@p out untouched), or empty. */
std::string parse(const Kind &kind, const std::string &text, Value &out);

/** The --help placeholder of @p kind ("N", "X", "a|b|c", ...). */
std::string meta(const Kind &kind);

/** Warn that @p var='@p text' is ignored because of @p error. */
void rejectEnv(const std::string &var, const std::string &text,
               const std::string &error);

/** The environment read behind every knob: parse @p var as @p kind into
 *  @p out. False when unset or empty, and (after one rejectEnv warning,
 *  @p out untouched) when malformed. */
bool readEnv(const char *var, const Kind &kind, Value &out);

} // namespace knob
} // namespace nisqpp

#endif // NISQPP_COMMON_KNOB_HH
