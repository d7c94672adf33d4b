/**
 * @file
 * Minimal logging and error-exit helpers, following the gem5 convention:
 * fatal() is for user error (bad configuration), panic() is for internal
 * invariant violations (a bug in this library).
 */

#ifndef NISQPP_COMMON_LOGGING_HH
#define NISQPP_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace nisqpp {

/** Print "fatal: <msg>" to stderr and exit(1). User-caused conditions. */
[[noreturn]] void fatal(const std::string &msg);

/** Print "panic: <msg>" to stderr and abort(). Internal bugs only. */
[[noreturn]] void panic(const std::string &msg);

/** Print "warn: <msg>" to stderr and continue. */
void warn(const std::string &msg);

/**
 * Check an internal invariant; panics with location info when violated.
 *
 * @param cond The invariant that must hold.
 * @param msg  Description of the violated invariant.
 */
inline void
require(bool cond, const std::string &msg)
{
    if (!cond)
        panic(msg);
}

} // namespace nisqpp

/**
 * Debug-only invariant check for hot-path accessors: compiles to
 * nothing in release builds (NDEBUG), panics with the message in debug
 * builds. Use require() instead on user-facing/CLI paths, where the
 * check must survive into release binaries.
 */
#ifdef NDEBUG
// Reference the operands without evaluating them so parameters used
// only in checks do not trip -Wunused-parameter in release builds.
#define NISQPP_DCHECK(cond, msg)                                      \
    (true ? (void)0 : ((void)(cond), (void)(msg)))
#else
#define NISQPP_DCHECK(cond, msg) ::nisqpp::require((cond), (msg))
#endif

#endif // NISQPP_COMMON_LOGGING_HH
