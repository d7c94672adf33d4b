#include "engine/knobs.hh"

#include <algorithm>
#include <iostream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "ckpt/checkpoint.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "sim/monte_carlo.hh"

namespace nisqpp {

namespace {

using knob::Value;
using faults::FaultSpec;

/** The setter of member @p M of CliArgs, RunOptions or FaultSpec; a
 *  fault-plan value also pins fault_sweep's fault operating point. */
template <auto M>
void
store(CliArgs &a, const Value &v)
{
    auto &slot = [&]() -> auto & {
        if constexpr (requires { a.*M; })
            return a.*M;
        else if constexpr (requires { a.options.*M; })
            return a.options.*M;
        else {
            a.options.faultGiven = true;
            return a.options.faultSpec.*M;
        }
    }();
    using T = std::remove_reference_t<decltype(slot)>;
    if constexpr (std::is_same_v<T, bool>)
        slot = true; // a switch
    else if constexpr (std::is_same_v<T, std::string>)
        slot = v.text;
    else if constexpr (std::is_floating_point_v<T>)
        slot = v.number;
    else
        slot = static_cast<T>(v.integer);
}

} // namespace

const std::vector<Knob> &
knobTable()
{
    using knob::Kind;
    const Kind rate{Kind::Real, 0.0, 1.0};
    const Kind file{Kind::Path};
    const char *faults = "NISQPP_STREAM_FAULTS";
    const char *faultSweep = "fault_sweep";
    static const std::vector<Knob> table{
        {.flag = "--scenario", .kind = {.type = Kind::Path, .meta = "NAME"},
         .runnerOnly = true,
         .help = "which scenario to run; a bare first operand works too",
         .set = store<&CliArgs::scenario>},
        {.flag = "--list", .runnerOnly = true,
         .help = "list scenarios with descriptions",
         .set = store<&CliArgs::listOnly>},
        {.flag = "--help", .alias = "-h", .help = "print this help",
         .set = store<&CliArgs::helpOnly>},
        {.flag = "--threads", .kind = {Kind::Int, 0, 4096},
         .help = "engine worker threads; 0 = hardware concurrency",
         .set = store<&RunOptions::threads>},
        {.flag = "--shard-trials", .kind = {Kind::Int, 1, 1e15},
         .help = "trials per shard (default " +
                 std::to_string(RunOptions{}.shardTrials) +
                 "); fixes the seed streams",
         .set = store<&RunOptions::shardTrials>},
        {.flag = "--trials-scale", .kind = kTrialsMultiplier,
         .help = "multiply every trial budget by X",
         .set = store<&RunOptions::trialsScale>},
        {.env = kTrialsEnv, .kind = kTrialsMultiplier,
         .help = "multiply every trial budget on top of --trials-scale"},
        {.flag = "--seed", .kind = {Kind::Seed},
         .flagMark = &RunOptions::seedSet,
         .help = "override the scenario's master seed",
         .set = store<&RunOptions::seed>},
        {.flag = "--batch", .env = "NISQPP_BATCH",
         .kind = {Kind::Int, 1, static_cast<double>(kMaxBatchLanes)},
         .help = "rounds per decode group in per-round, windowed and "
                 "stream runs (default 1 = scalar); lifetime sweeps "
                 "lane-pack whole shards instead",
         .set = store<&RunOptions::batchLanes>},
        {.flag = "--simd", .env = "NISQPP_SIMD",
         .kind = {.type = Kind::Choice, .choices = "scalar|v256|v512"},
         .help = "lane-packed decode word width (default: widest the CPU "
                 "supports)",
         .set = [](CliArgs &, const Value &v) {
             simd::setActiveWidth(static_cast<simd::Width>(v.integer));
         }},
        {.flag = "--format",
         .kind = {.type = Kind::Choice, .choices = "table|csv|json"},
         .help = "output rendering", .set = store<&RunOptions::format>},
        {.flag = "--metrics-out", .kind = file,
         .help = "write the versioned JSON run report",
         .set = store<&RunOptions::metricsOut>},
        {.flag = "--trace-out", .kind = file,
         .help = "write a chrome://tracing dump of the instrumented stages",
         .set = store<&RunOptions::traceOut>},
        {.flag = "--checkpoint", .kind = file,
         .help = "persist the sweep's shard ledger periodically; "
                 "sweep scenarios only",
         .set = store<&RunOptions::checkpointPath>},
        {.flag = "--checkpoint-interval", .env = "NISQPP_CKPT_INTERVAL",
         .kind = {Kind::Int, 1,
                  static_cast<double>(ckpt::kMaxCheckpointInterval)},
         .flagMark = &RunOptions::checkpointIntervalSet,
         .help = "shard completions between checkpoint writes (default " +
                 std::to_string(ckpt::kDefaultCheckpointInterval) + ")",
         .set = store<&RunOptions::checkpointInterval>},
        {.flag = "--resume", .kind = file,
         .help = "continue a checkpointed sweep where it stopped",
         .set = store<&RunOptions::resumePath>},
        {.flag = "--escalate-threshold", .kind = rate,
         .scenario = "tiered_decode",
         .help = "pin one confidence threshold instead of the sweep",
         .set = store<&RunOptions::escalateThreshold>},
        {.flag = "--fault-drop", .env = faults, .key = "drop", .kind = rate,
         .scenario = faultSweep, .help = "pin the rate of dropped rounds",
         .set = store<&FaultSpec::dropRate>},
        {.flag = "--fault-corrupt", .env = faults, .key = "corrupt",
         .kind = rate, .scenario = faultSweep,
         .help = "pin the rate of corrupted rounds",
         .set = store<&FaultSpec::corruptRate>},
        {.flag = "--fault-dup", .env = faults, .key = "dup", .kind = rate,
         .scenario = faultSweep, .help = "pin the rate of duplicated rounds",
         .set = store<&FaultSpec::duplicateRate>},
        {.flag = "--fault-delay", .env = faults, .key = "delay", .kind = rate,
         .scenario = faultSweep, .help = "pin the rate of delayed rounds",
         .set = store<&FaultSpec::delayRate>},
        {.flag = "--fault-stall", .env = faults, .key = "stall", .kind = rate,
         .scenario = faultSweep, .help = "pin the rate of stalled decodes",
         .set = store<&FaultSpec::stallRate>},
        {.flag = "--fault-fail", .env = faults, .key = "fail", .kind = rate,
         .scenario = faultSweep, .help = "pin the rate of failed decodes",
         .set = store<&FaultSpec::decodeFailRate>},
        {.flag = "--fault-seed", .env = faults, .key = "seed",
         .kind = {Kind::Seed, 1.0}, .scenario = faultSweep,
         .help = "seed of the pinned fault plan",
         .set = store<&FaultSpec::seed>},
        {.env = faults, .key = "delay-cycles", .kind = {Kind::Int, 1, 1024},
         .scenario = faultSweep, .help = "syndrome cycles a delay lasts",
         .set = store<&FaultSpec::delayCycles>},
        {.env = faults, .key = "stall-factor",
         .kind = {Kind::Real, 1.0, 1e6}, .scenario = faultSweep,
         .help = "service-time multiplier of a stall",
         .set = store<&FaultSpec::stallFactor>},
        {.flag = "--deadline-ns", .kind = {Kind::Real, 0.0, 1e9, true},
         .scenario = faultSweep,
         .help = "per-round decode deadline (virtual ns)",
         .set = store<&RunOptions::deadlineNs>},
    };
    return table;
}

std::string
applyFlag(const Knob &row, const std::string &text, CliArgs &args)
{
    Value v;
    const std::string error = knob::parse(row.kind, text, v);
    if (!error.empty())
        return std::string(row.flag) + ": " + error;
    row.set(args, v);
    if (row.flagMark)
        args.options.*row.flagMark = true;
    return {};
}

void
applyEnv(CliArgs &args, const std::string &scenario)
{
    const std::vector<Knob> &table = knobTable();
    for (const Knob &row : table) {
        const auto sameEnv = [&row](const Knob &k) {
            return k.env && row.env == std::string_view(k.env);
        };
        // A directive list is read once, at the row of its first key.
        if (!row.set || !row.env ||
            &*std::find_if(table.begin(), table.end(), sameEnv) != &row)
            continue;
        Value v;
        const knob::Kind list{knob::Kind::List};
        if (!knob::readEnv(row.env, row.key ? list : row.kind, v))
            continue;
        if (row.scenario && !scenario.empty() && scenario != row.scenario) {
            warn(std::string(row.env) + " only applies to " +
                 row.scenario + "; ignored");
            continue;
        }
        CliArgs staged = args; // a list lands whole or not at all
        if (!row.key)
            row.set(staged, v);
        for (const knob::Directive &d : v.list) {
            const auto k = std::find_if(
                table.begin(), table.end(), [&](const Knob &k) {
                    return sameEnv(k) && k.key && d.key == k.key;
                });
            Value dv;
            const std::string error =
                k == table.end() ? "unknown directive"
                                 : knob::parse(k->kind, d.value, dv);
            if (!error.empty()) {
                knob::rejectEnv(row.env, v.text,
                                d.key + "=" + d.value + ": " + error);
                staged = args;
                break;
            }
            k->set(staged, dv);
        }
        args = std::move(staged);
    }
}

namespace {

/**
 * Parse a command line: env twins, then the flags, which override them
 * and are fatal on a bad value, an unknown argument, or a pinning flag
 * given to another scenario. @p pinned is a bench binary's scenario;
 * empty for nisqpp_run, which also takes --scenario, --list and a bare
 * scenario operand.
 */
CliArgs
parseArgs(int argc, char **argv, const std::string &pinned)
{
    const std::vector<Knob> &table = knobTable();
    // Pass 1 checks the flags in order (the first bad one is fatal) and
    // learns the scenario; pass 2 replays them over the env twins.
    CliArgs flags;
    std::vector<std::pair<const Knob *, std::string>> given;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto row =
            std::find_if(table.begin(), table.end(), [&](const Knob &k) {
                return k.flag &&
                       (arg == k.flag || (k.alias && arg == k.alias)) &&
                       (pinned.empty() || !k.runnerOnly);
            });
        if (row == table.end()) {
            if (!pinned.empty() || arg.empty() || arg[0] == '-' ||
                !flags.scenario.empty())
                fatal("unknown argument '" + arg + "' (try --help)");
            flags.scenario = arg; // bare operand: the scenario name
            continue;
        }
        const bool takesValue = row->kind.type != knob::Kind::Switch;
        if (takesValue && i + 1 >= argc)
            fatal(arg + ": missing value");
        given.emplace_back(&*row, takesValue ? argv[++i] : "");
        const std::string error = applyFlag(*row, given.back().second, flags);
        if (!error.empty())
            fatal(error);
    }

    const std::string scenario = pinned.empty() ? flags.scenario : pinned;
    CliArgs args;
    applyEnv(args, scenario);
    for (const auto &[row, text] : given) {
        if (row->scenario && !scenario.empty() && scenario != row->scenario)
            fatal(std::string(row->flag) + " only applies to " +
                  row->scenario);
        applyFlag(*row, text, args);
    }
    args.scenario = flags.scenario;
    return args;
}

void
printUsage(std::ostream &os, const std::string &binary, bool runner)
{
    os << "usage: " << binary << (runner ? " [--scenario] NAME" : "")
       << " [options]\n";
    if (runner) {
        os << "\nscenarios:\n";
        for (const Scenario &s : scenarioRegistry())
            os << "  " << s.name << "  -  " << s.description << "\n";
    }
    os << "\noptions (a flag fails hard and overrides its env twin, which "
          "warns and keeps\nthe previous setting on a bad value):\n";
    for (const Knob &row : knobTable()) {
        if (row.runnerOnly && !runner)
            continue;
        const std::string meta = knob::meta(row.kind);
        if (row.flag)
            os << "  " << row.flag << (meta.empty() ? "" : " ") << meta;
        if (row.env)
            os << (row.flag ? "  |  " : "  ") << row.env << "="
               << (row.key ? row.key + ("=" + meta) + ",..." : meta);
        if (row.scenario)
            os << "  [" << row.scenario << " only]";
        os << "\n      " << row.help << "\n";
    }
}

} // namespace

int
scenarioMain(const std::string &name, int argc, char **argv)
{
    const bool runner = name.empty();
    const CliArgs parsed = parseArgs(argc, argv, name);
    const std::string binary = runner ? "nisqpp_run" : argv[0];
    if (parsed.helpOnly) {
        printUsage(std::cout, binary, runner);
        return 0;
    }
    if (parsed.listOnly) {
        for (const Scenario &s : scenarioRegistry())
            std::cout << s.name << "  -  " << s.description << "\n";
        return 0;
    }
    if (runner && parsed.scenario.empty()) {
        printUsage(std::cerr, binary, runner);
        return 1;
    }
    return runScenario(runner ? parsed.scenario : name, parsed.options,
                       std::cout);
}

int
nisqppRunMain(int argc, char **argv)
{
    return scenarioMain("", argc, argv);
}

} // namespace nisqpp
