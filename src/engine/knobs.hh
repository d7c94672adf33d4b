/**
 * @file
 * The knob table: one row per user-settable value of nisqpp_run and the
 * bench binaries — flag, env twin, value kind and range, the scenario it
 * pins, help text and the slot it sets. The flag parser, the env reader
 * and --help of scenarioMain/nisqppRunMain are generated from it;
 * tests/engine/test_registry_docs.cc pins the README flag table to it.
 */

#ifndef NISQPP_ENGINE_KNOBS_HH
#define NISQPP_ENGINE_KNOBS_HH

#include <string>
#include <vector>

#include "common/knob.hh"
#include "engine/scenario.hh"

namespace nisqpp {

/** What a command line sets: the run options plus nisqpp_run's own
 *  scenario operand and --list/--help switches. */
struct CliArgs
{
    RunOptions options;
    std::string scenario;
    bool listOnly = false;
    bool helpOnly = false;

    bool operator==(const CliArgs &) const = default;
};

/** One user-settable value. */
struct Knob
{
    const char *flag = nullptr;     ///< nullptr: env only
    const char *alias = nullptr;    ///< short spelling of the flag
    const char *env = nullptr;      ///< env twin; nullptr: none
    const char *key = nullptr;      ///< directive key when env is a list
    knob::Kind kind = {};           ///< no parser: a switch
    const char *scenario = nullptr; ///< the one scenario it pins
    bool runnerOnly = false;        ///< nisqpp_run only
    bool RunOptions::*flagMark = nullptr; ///< set by the flag, not env
    std::string help;
    /** Stores a parsed value; nullptr for NISQPP_TRIALS, which
     *  ScenarioContext reads once per run. */
    void (*set)(CliArgs &, const knob::Value &) = nullptr;
};

/** Every knob, in --help and README order. */
const std::vector<Knob> &knobTable();

/** Apply flag @p row with value @p text; returns "<flag>: <reason>"
 *  (@p args untouched) or empty. */
std::string applyFlag(const Knob &row, const std::string &text,
                      CliArgs &args);

/** Apply every env twin, warn-and-keep; a directive list lands whole or
 *  not at all. A set variable pinning a scenario other than @p scenario
 *  (empty: unknown) warns that it is ignored. */
void applyEnv(CliArgs &args, const std::string &scenario);

} // namespace nisqpp

#endif // NISQPP_ENGINE_KNOBS_HH
