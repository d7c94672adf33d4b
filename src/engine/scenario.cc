#include "engine/scenario.hh"

#include <fstream>
#include <iostream>

#include "common/knob.hh"
#include "engine/scenarios.hh"
#include "obs/report.hh"
#include "obs/trace.hh"

namespace nisqpp {

ScenarioContext::ScenarioContext(const RunOptions &options,
                                 std::ostream &os)
    : options_(options), os_(os)
{
    knob::Value mult;
    if (knob::readEnv(kTrialsEnv, kTrialsMultiplier, mult))
        envTrials_ = mult.number;
    if (options_.format == OutputFormat::Json)
        os_ << "{\"tables\":[";
}

Engine &
ScenarioContext::engine()
{
    if (!engine_) {
        EngineOptions engineOptions;
        engineOptions.threads = options_.threads;
        engineOptions.shardTrials = options_.shardTrials;
        engineOptions.batchLanes = options_.batchLanes;
        engine_ = std::make_unique<Engine>(engineOptions);
        if (ckptPolicy_.enabled())
            engine_->setCheckpointPolicy(ckptPolicy_);
        if (ckptLedger_)
            engine_->resumeFrom(std::move(*ckptLedger_));
    }
    return *engine_;
}

void
ScenarioContext::setCheckpoint(
    const ckpt::CheckpointPolicy &policy,
    std::unique_ptr<ckpt::CheckpointLedger> ledger)
{
    ckptPolicy_ = policy;
    ckptLedger_ = std::move(ledger);
}

std::uint64_t
ScenarioContext::seed(std::uint64_t fallback) const
{
    return options_.seedSet ? options_.seed : fallback;
}

StopRule
ScenarioContext::scaled(const StopRule &rule) const
{
    // StopRule::scaled ignores a non-positive multiplier: an unset or
    // malformed NISQPP_TRIALS leaves the budget alone.
    return rule.scaled(options_.trialsScale).scaled(envTrials_);
}

void
ScenarioContext::note(const std::string &line)
{
    if (options_.format == OutputFormat::Table)
        os_ << line << '\n';
}

void
ScenarioContext::table(const std::string &id, const TablePrinter &table)
{
    switch (options_.format) {
      case OutputFormat::Table:
        table.print(os_);
        break;
      case OutputFormat::Csv:
        os_ << "# " << id << '\n';
        table.printCsv(os_);
        break;
      case OutputFormat::Json:
        if (!firstTable_)
            os_ << ',';
        firstTable_ = false;
        os_ << "{\"id\":\"" << id << "\",\"table\":";
        table.printJson(os_);
        os_ << '}';
        break;
    }
}

void
ScenarioContext::finish()
{
    if (options_.format == OutputFormat::Json)
        os_ << "]}\n";
}

obs::MetricSet
ScenarioContext::collectMetrics() const
{
    obs::MetricSet out = metrics_;
    if (engine_) {
        out.merge(engine_->metrics());
        engine_->runtimeMetricsInto(out);
        engine_->checkpointMetricsInto(out);
    }
    obs::stageTimingInto(out);
    return out;
}

const std::vector<Scenario> &
scenarioRegistry()
{
    using namespace scenarios;
    static const std::vector<Scenario> registry{
        {"fig01_sqv", "Fig. 1: SQV boost from approximate QEC",
         fig01Sqv},
        {"fig05_backlog",
         "Fig. 5: wall clock vs compute time under decode backlog",
         fig05Backlog},
        {"fig06_runtime",
         "Fig. 6: running time vs syndrome processing ratio f",
         fig06Runtime},
        {"fig10_variants",
         "Fig. 10 top row: incremental mesh design steps (MC sweep)",
         fig10Variants},
        {"fig10_final",
         "Fig. 10 (a)/(b): final design error scaling (MC sweep)",
         fig10Final},
        {"fig10_cycles",
         "Fig. 10 (c): cycles-to-solution densities (MC sweep)",
         fig10Cycles},
        {"fig11_distance",
         "Fig. 11: required code distance for 100 T gates",
         fig11Distance},
        {"table1_circuits", "Table I: benchmark characteristics",
         table1Circuits},
        {"table2_cells", "Table II: ERSFQ cell library", table2Cells},
        {"table3_synthesis", "Table III: SFQ synthesis results",
         table3Synthesis},
        {"table4_latency",
         "Table IV: decoder execution time statistics (MC sweep)",
         table4Latency},
        {"table5_fit",
         "Table V: scaling-model fit c2 per distance (MC sweep)",
         table5Fit},
        {"micro_decoders",
         "decoder throughput shoot-out through the sharded engine",
         microDecoders},
        {"micro_hotpath",
         "tracked per-trial hot-path benchmark (BENCH_hotpath.json)",
         microHotpath},
        {"streaming_backlog",
         "streaming decode pipeline: queue depth, latency percentiles "
         "and backlog growth per decoder x distance x cycle time",
         streamingBacklog},
        {"fig10_measurement",
         "PL vs p under faulty measurement (q = p): d-round windowed "
         "spacetime decoding for MWPM and union-find",
         fig10Measurement},
        {"noise_zoo",
         "every noise channel x every decoder at d = 5: PL grid plus "
         "each decoder's decodeWindow strategy",
         noiseZoo},
        {"tiered_decode",
         "tiered mesh-first decoding: confidence-threshold sweep "
         "mapping the accuracy vs latency vs escalation-rate frontier "
         "against pure-mesh and pure-software baselines",
         tieredDecode},
        {"fault_sweep",
         "fault-injected streaming decode: PL and latency vs fault "
         "rate for each recovery policy (retransmit, carry-forward, "
         "decode deadline, load shedding) against the fault-free "
         "baseline",
         faultSweep},
    };
    return registry;
}

const Scenario *
findScenario(const std::string &name)
{
    for (const Scenario &s : scenarioRegistry())
        if (s.name == name)
            return &s;
    return nullptr;
}

int
runScenario(const std::string &name, const RunOptions &options,
            std::ostream &os)
{
    const Scenario *scenario = findScenario(name);
    if (!scenario) {
        std::cerr << "unknown scenario '" << name
                  << "'; available scenarios:\n";
        for (const Scenario &s : scenarioRegistry())
            std::cerr << "  " << s.name << "\n";
        std::cerr << "(run 'nisqpp_run --list' for descriptions)\n";
        return 1;
    }
    if (options.checkpointIntervalSet && options.checkpointPath.empty() &&
        options.resumePath.empty()) {
        std::cerr << "--checkpoint-interval requires --checkpoint or "
                     "--resume\n";
        return 1;
    }
    // Open both sinks before any work runs: a bad path should fail
    // fast instead of discarding a long run's report at the end.
    std::ofstream metricsFile;
    if (!options.metricsOut.empty()) {
        metricsFile.open(options.metricsOut);
        if (!metricsFile) {
            std::cerr << "cannot open --metrics-out '"
                      << options.metricsOut << "' for writing\n";
            return 1;
        }
    }
    std::ofstream traceFile;
    if (!options.traceOut.empty()) {
        traceFile.open(options.traceOut);
        if (!traceFile) {
            std::cerr << "cannot open --trace-out '"
                      << options.traceOut << "' for writing\n";
            return 1;
        }
    }

    // Resume first: a bad or mismatched checkpoint must fail before
    // any simulation work starts.
    std::unique_ptr<ckpt::CheckpointLedger> ledger;
    if (!options.resumePath.empty()) {
        try {
            ledger = std::make_unique<ckpt::CheckpointLedger>(
                ckpt::loadCheckpoint(options.resumePath));
        } catch (const ckpt::CheckpointError &err) {
            std::cerr << "cannot resume: " << err.what() << "\n";
            return 1;
        }
        if (ledger->scope != name) {
            std::cerr << "cannot resume: checkpoint '"
                      << options.resumePath
                      << "' was written by scenario '" << ledger->scope
                      << "', not '" << name << "'\n";
            return 1;
        }
    }
    ckpt::CheckpointPolicy policy;
    if (!options.checkpointPath.empty() ||
        !options.resumePath.empty()) {
        policy.path = !options.checkpointPath.empty()
                          ? options.checkpointPath
                          : options.resumePath;
        policy.intervalShards = options.checkpointInterval;
        policy.scope = name;
        // SIGINT/SIGTERM now drain, persist a final checkpoint and
        // exit with kExitInterrupted instead of dropping the run.
        ckpt::installSignalHandlers();
    }

    const bool wantTiming =
        !options.metricsOut.empty() || !options.traceOut.empty();
    if (wantTiming) {
        obs::resetStageTimes();
        obs::setTimingCollection(true);
        obs::setTraceCapture(!options.traceOut.empty());
    }

    ScenarioContext ctx(options, os);
    if (policy.enabled() || ledger)
        ctx.setCheckpoint(policy, std::move(ledger));
    int rc = 0;
    try {
        scenario->run(ctx);
        ctx.finish();
        // Only sharded sweeps are checkpointed: a flag that cannot
        // apply must not pass for a persisted run.
        if (policy.enabled() && !ctx.ranSweep()) {
            std::cerr << "scenario '" << name
                      << "' runs no sharded sweep, so --checkpoint / "
                         "--resume do not apply to it\n";
            rc = 1;
        }
    } catch (const ckpt::InterruptedError &err) {
        std::cerr << "\ninterrupted: checkpoint written to '"
                  << err.path() << "'; resume with --resume '"
                  << err.path() << "'\n";
        rc = ckpt::kExitInterrupted;
    } catch (const ckpt::CheckpointError &err) {
        std::cerr << err.what() << "\n";
        rc = 1;
    }

    if (wantTiming) {
        obs::setTimingCollection(false);
        obs::setTraceCapture(false);
        // Reports describe a completed run only; an interrupted or
        // failed run must not overwrite them with partial data.
        if (rc == 0 && metricsFile.is_open()) {
            obs::RunReportConfig cfg;
            cfg.scenario = name;
            cfg.threads = options.threads;
            cfg.shardTrials = options.shardTrials;
            cfg.trialsScale = options.trialsScale;
            cfg.seed = options.seed;
            cfg.seedSet = options.seedSet;
            cfg.batchLanes = options.batchLanes;
            if (!obs::writeRunReport(metricsFile, cfg,
                                     ctx.collectMetrics())) {
                std::cerr << "write failed: --metrics-out '"
                          << options.metricsOut << "'\n";
                return 1;
            }
        }
        if (rc == 0 && traceFile.is_open()) {
            if (!obs::writeChromeTrace(traceFile)) {
                std::cerr << "write failed: --trace-out '"
                          << options.traceOut << "'\n";
                return 1;
            }
        }
    }
    return rc;
}

} // namespace nisqpp
