#include "common/knob.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace nisqpp {
namespace knob {

namespace {

/** Compact decimal for range messages: 4096, 0.5, 1e6. */
std::string
numText(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    std::string s = buf;
    const std::size_t e = s.find("e+");
    if (e != std::string::npos)
        s.erase(e + 1, s.find_first_not_of("+0", e + 1) - (e + 1));
    return s;
}

/** @name One parser per kind: fill @p v or return the error. @{ */

/** Int and Real: a decimal number, then the kind's range. */
std::string
parseNumber(const Kind &k, const std::string &text, Value &v)
{
    char *end = nullptr;
    if (text.find_first_not_of("0123456789+-.eE") == std::string::npos)
        v.number = std::strtod(text.c_str(), &end) + 0.0; // -0 reads as 0
    if (text.empty() || end != text.c_str() + text.size())
        return "expected a number, got '" + text + "'";
    const bool inRange = (k.loOpen ? v.number > k.lo : v.number >= k.lo) &&
                         v.number <= k.hi;
    if (k.type == Kind::Int) {
        if (!inRange || v.number != std::floor(v.number))
            return "expected an integer in [" + numText(k.lo) + ", " +
                   numText(k.hi) + "]";
        v.integer = static_cast<std::uint64_t>(v.number);
    }
    if (inRange)
        return {};
    if (k.lo == 0.0 && k.hi == 1.0 && !k.loOpen)
        return "expected a fraction in [0, 1]";
    if (k.lo == 0.0 && k.loOpen)
        return "expected a positive number <= " + numText(k.hi);
    return "expected a number in [" + numText(k.lo) + ", " +
           numText(k.hi) + "]";
}

std::string
parseSeed(const Kind &k, const std::string &text, Value &v)
{
    errno = 0;
    const bool digits =
        !text.empty() &&
        text.find_first_not_of("0123456789") == std::string::npos;
    if (digits)
        v.integer = std::strtoull(text.c_str(), nullptr, 10);
    if (digits && errno != ERANGE && static_cast<double>(v.integer) >= k.lo)
        return {};
    return "expected an unsigned 64-bit integer (decimal" +
           (k.lo > 0 ? ", >= " + numText(k.lo) : "") + "), got '" + text +
           "'";
}

std::string
parseChoice(const Kind &k, const std::string &text, Value &v)
{
    const std::string all = k.choices;
    std::string expected;
    for (std::size_t start = 0; start <= all.size(); ++v.integer) {
        const std::size_t bar = std::min(all.find('|', start), all.size());
        if (all.compare(start, bar - start, text) == 0)
            return {};
        expected += (start == 0 ? "" : bar == all.size() ? " or " : ", ") +
                    all.substr(start, bar - start);
        start = bar + 1;
    }
    return "expected " + expected;
}

std::string
parsePath(const Kind &, const std::string &text, Value &v)
{
    v.text = text;
    return text.empty() ? "expected a non-empty value" : "";
}

std::string
parseList(const Kind &, const std::string &text, Value &v)
{
    v.text = text;
    for (std::size_t start = 0; start <= text.size();) {
        const std::size_t comma =
            std::min(text.find(',', start), text.size());
        const std::string token = text.substr(start, comma - start);
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 == token.size() ||
            token.find('=', eq + 1) != std::string::npos)
            return "expected a k=v,k=v directive list";
        v.list.push_back({token.substr(0, eq), token.substr(eq + 1)});
        start = comma + 1;
    }
    return {};
}

/** @} */

} // namespace

std::string
parse(const Kind &kind, const std::string &text, Value &out)
{
    using Parser = std::string (*)(const Kind &, const std::string &,
                                   Value &);
    static constexpr Parser parsers[] = {nullptr,     parseNumber,
                                         parseNumber, parseSeed,
                                         parseChoice, parsePath,
                                         parseList};
    Value v;
    const std::string error =
        kind.type == Kind::Switch ? "" : parsers[kind.type](kind, text, v);
    if (error.empty())
        out = std::move(v);
    return error;
}

std::string
meta(const Kind &kind)
{
    static const char *const metas[] = {"", "N", "X", "S", "", "FILE",
                                        "k=v,..."};
    return kind.meta ? kind.meta
                     : kind.choices ? kind.choices : metas[kind.type];
}

void
rejectEnv(const std::string &var, const std::string &text,
          const std::string &error)
{
    warn(var + "='" + text + "': " + error +
         "; keeping the previous setting");
}

bool
readEnv(const char *var, const Kind &kind, Value &out)
{
    const char *env = std::getenv(var);
    if (!env || !*env)
        return false;
    const std::string error = parse(kind, env, out);
    if (!error.empty())
        rejectEnv(var, env, error);
    return error.empty();
}

} // namespace knob
} // namespace nisqpp
