/**
 * @file
 * perfbench: the repository's throughput benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--reference FILE] [--out-dir DIR] [--git-rev REV]
 *             [--src-hash HASH] [--emit-reference]
 *
 * --trace 0 measures the end-to-end metrics with all tracing off:
 * fixed-budget repetitions of the workload until S seconds have passed,
 * each on a freshly set-up engine (throughput and CPU per unit taken
 * over the whole timed phase; set-up time is the median over the
 * repetitions of set-up start to first decoder built). --trace 1 is the
 * separate traced run: an untraced base phase, a phase with the library's own
 * obs:: timing on, and a phase with every decoder wrapped in a
 * TimedDecoder, followed by the per-layer metrics. Both modes run the
 * layer replay and check every output cell; the last stdout line is
 * the result object {"correct", "attempted", "failed", "metrics"}.
 * The exit code is 0 only when every check passed.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "host.hh"
#include "obs/trace.hh"
#include "replay.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

/** The seed whose cell fingerprints reference.txt records. */
constexpr std::uint64_t kDefaultSeed = 1;
/** Replay trials per spec (windowed specs run a quarter of these). */
constexpr std::size_t kReplayTrials = 2000;
/**
 * Repetitions per phase of a traced run at most: bounds the spans kept
 * in memory (lifetime_mesh records ~160k decoder spans a repetition).
 */
constexpr std::size_t kTracedPhaseReps = 5;
/** Spans written to the chrome trace file (the rest stay in memory). */
constexpr std::size_t kTraceFileSpans = 50000;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    std::string reference;
    std::string outDir;
    std::string gitRev = "unknown";
    std::string srcHash = "unknown";
    bool emitReference = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--reference FILE] [--out-dir DIR] "
                 "[--git-rev REV] [--src-hash HASH] [--emit-reference]\n";
    std::exit(2);
}

bool
parseUint(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
        text.size() > 19)
        return false;
    out = std::stoull(text);
    return true;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--emit-reference") {
            a.emitReference = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string value = argv[++i];
        std::uint64_t n = 0;
        if (key == "--workload") {
            a.workload = value;
            haveWorkload = true;
        } else if (key == "--seed") {
            if (!parseUint(value, n))
                usage("--seed must be a non-negative integer");
            a.seed = n;
        } else if (key == "--seconds") {
            if (!parseUint(value, n) || n < 1 || n > 600)
                usage("--seconds must be an integer in [1, 600]");
            a.seconds = static_cast<double>(n);
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            a.trace = value == "1";
        } else if (key == "--reference") {
            a.reference = value;
        } else if (key == "--out-dir") {
            a.outDir = value;
        } else if (key == "--git-rev") {
            a.gitRev = value;
        } else if (key == "--src-hash") {
            a.srcHash = value;
        } else {
            usage("unknown option " + key);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p q in [0, 1] of @p v (sorted in place). */
double
percentile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

/** reference.txt: "<workload> <cell label> <fingerprint hex>" lines. */
std::map<std::string, std::string>
loadReference(const std::string &path, const std::string &workload)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string w, label, fp;
    while (in >> w >> label >> fp)
        if (w == workload)
            out[label] = fp;
    return out;
}

/** One timed repetition of the workload. */
struct Rep
{
    RepOutcome outcome;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    double cpuS = 0.0;
    /** Engine set-up start to the first decoder built (first trial). */
    double setupS = 0.0;

    double wallS() const { return 1e-9 * static_cast<double>(endNs - startNs); }
    double unitsPerS() const
    {
        return static_cast<double>(outcome.units) / wallS();
    }
};

/**
 * Input seed of repetition @p k: the run's seed itself for the first,
 * fresh derived seeds after it, so a run's median covers several
 * independent input sets instead of repeating one.
 */
std::uint64_t
repSeed(std::uint64_t seed, std::size_t k)
{
    return k == 0 ? seed : splitmix(seed + k);
}

/**
 * Run repetitions for at least @p seconds (and at least one), stopping
 * early after @p maxReps when it is nonzero. Each repetition gets a
 * fresh set-up, as a user's run would; its wall and CPU time start
 * after the set-up, which Rep::setupS times instead.
 */
std::vector<Rep>
runPhase(Workload &w, std::uint64_t seed, bool traced, double seconds,
         std::size_t maxReps = 0)
{
    std::vector<Rep> reps;
    const std::uint64_t phaseStart = nowNs();
    do {
        Rep rep;
        w.teardown();
        const std::uint64_t setupStart = nowNs();
        w.setup();
        const double cpu0 = processCpuSeconds();
        rep.startNs = nowNs();
        rep.outcome = w.run(repSeed(seed, reps.size()), traced);
        rep.endNs = nowNs();
        rep.cpuS = processCpuSeconds() - cpu0;
        rep.setupS =
            1e-9 * static_cast<double>(rep.outcome.firstTrialNs - setupStart);
        reps.push_back(std::move(rep));
    } while (1e-9 * static_cast<double>(nowNs() - phaseStart) < seconds &&
             (maxReps == 0 || reps.size() < maxReps));
    return reps;
}

/**
 * Checks every repetition's cells: invariants, equality with the
 * same-seed repetition of another phase (traced and untraced runs must
 * agree), and for the first repetition at the default seed equality
 * with the stored reference. Counts attempted and failed cells.
 */
class Checker
{
  public:
    Checker(std::map<std::string, std::string> reference, bool useReference)
        : reference_(std::move(reference)), useReference_(useReference)
    {}

    /** @p against: same-seed repetitions to match, or null. */
    void
    checkReps(const std::vector<Rep> &reps, const std::vector<Rep> *against,
              const char *phase)
    {
        for (std::size_t k = 0; k < reps.size(); ++k) {
            const std::vector<CellOutcome> &cells = reps[k].outcome.cells;
            const std::vector<CellOutcome> *twin =
                against && k < against->size() ? &(*against)[k].outcome.cells
                                               : nullptr;
            for (std::size_t i = 0; i < cells.size(); ++i) {
                const CellOutcome &c = cells[i];
                std::string why = c.violation;
                if (twin && (i >= twin->size() ||
                             (*twin)[i].fingerprint != c.fingerprint))
                    why += std::string("fingerprint differs between the "
                                       "untraced and ") + phase + " runs; ";
                if (useReference_ && k == 0) {
                    auto it = reference_.find(c.label);
                    if (it == reference_.end())
                        why += "no reference fingerprint; ";
                    else if (it->second != hex(c.fingerprint))
                        why += "fingerprint " + hex(c.fingerprint) +
                               " != reference " + it->second + "; ";
                }
                record(c.label, why);
            }
        }
    }

    void
    checkGroups(const std::vector<CellOutcome> &groups)
    {
        for (const CellOutcome &g : groups)
            record(g.label, g.violation);
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failures_.size(); }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    void
    record(const std::string &label, const std::string &why)
    {
        ++attempted_;
        if (!why.empty())
            failures_.push_back(label + ": " + why);
    }

    std::map<std::string, std::string> reference_;
    bool useReference_;
    std::uint64_t attempted_ = 0;
    std::vector<std::string> failures_;
};

/** A metric as emitted: value plus unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using MetricMap = std::vector<std::pair<std::string, Metric>>;

std::string
metricsJson(const MetricMap &metrics)
{
    std::ostringstream os;
    os << std::setprecision(10) << "{";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        os << (first ? "" : ", ") << quoted(name) << ": {\"value\": "
           << (std::isfinite(m.value) ? m.value : 0.0)
           << ", \"unit\": " << quoted(m.unit) << "}";
        first = false;
    }
    os << "}";
    return os.str();
}

bool
isDecoderLabel(const std::string &label)
{
    return (label.rfind("core.mesh.", 0) == 0 ||
            label.rfind("decoders.", 0) == 0) &&
           label.size() > 7 && label.compare(label.size() - 7, 7, ".decode") == 0;
}

/**
 * Per-layer metrics of a traced run. emit() reports metrics the
 * workload's layers did not produce as 0 and lists them as absent.
 */
class LayerReport
{
  public:
    void
    set(const std::string &name, double value)
    {
        values_[name] = value;
    }

    /** `<metricPrefix>_p50` / `_p99` of the span durations @p durs. */
    void
    setPercentiles(const std::string &metricPrefix, std::vector<double> durs)
    {
        if (durs.empty())
            return;
        samples_[metricPrefix] = durs.size();
        values_[metricPrefix + "_p50"] = percentile(durs, 0.50);
        values_[metricPrefix + "_p99"] = percentile(durs, 0.99);
    }

    /** Emit every name of @p table in order, 0 + reason when absent. */
    MetricMap
    emit(const std::vector<std::pair<std::string, std::string>> &table,
         std::map<std::string, std::string> &absent) const
    {
        MetricMap out;
        for (const auto &[name, unit] : table) {
            auto it = values_.find(name);
            if (it == values_.end())
                absent[name] = "layer not exercised by this workload";
            out.push_back({name, {it == values_.end() ? 0.0 : it->second, unit}});
        }
        return out;
    }

    const std::map<std::string, std::size_t> &samples() const
    {
        return samples_;
    }

  private:
    std::map<std::string, double> values_;
    std::map<std::string, std::size_t> samples_;
};

/** The per_layer metric table (name, unit), BENCHMARK.json order. */
std::vector<std::pair<std::string, std::string>>
layerTable()
{
    std::vector<std::pair<std::string, std::string>> t;
    auto pct = [&t](const std::string &prefix) {
        t.push_back({prefix + "_p50", "ns"});
        t.push_back({prefix + "_p99", "ns"});
    };
    pct("noise.sample_ns");
    t.push_back({"noise.flips_per_trial", "count"});
    pct("surface.extract_ns");
    pct("surface.classify_ns");
    t.push_back({"surface.defects_per_syndrome", "count"});
    for (int d : {3, 5, 7, 9})
        pct("core.mesh.d" + std::to_string(d) + ".decode_ns");
    t.push_back({"core.mesh.cycles_per_decode", "count"});
    for (int d : {3, 5, 7, 9})
        pct("decoders.union_find_batch.d" + std::to_string(d) + ".decode_ns");
    t.push_back({"decoders.uf.growth_rounds", "count"});
    t.push_back({"decoders.uf.peel_len", "count"});
    for (int d : {5, 9})
        pct("decoders.union_find.d" + std::to_string(d) + ".decode_ns");
    for (int d : {5, 9})
        pct("decoders.tiered.d" + std::to_string(d) + ".decode_ns");
    t.push_back({"decoders.tiered.escalated_frac", "ratio"});
    for (int d : {3, 5, 9})
        pct("decoders.mwpm.window.d" + std::to_string(d) + ".decode_ns");
    pct("decoders.union_find.window.d9.decode_ns");
    t.push_back({"decoders.mwpm.augmentations", "count"});
    t.push_back({"decoders.mwpm.window.d9.graph_build_ns_p50", "ns"});
    t.push_back({"decoders.mwpm.window.d9.blossom_ns_p50", "ns"});
    t.push_back({"engine.decode_busy_frac", "ratio"});
    t.push_back({"engine.tail_s", "s"});
    t.push_back({"engine.tasks", "count"});
    t.push_back({"engine.steals", "count"});
    t.push_back({"stream.host_ns_per_round", "ns"});
    t.push_back({"stream.decode_frac", "ratio"});
    t.push_back({"stream.max_backlog_rounds", "count"});
    t.push_back({"stream.sim_p99_service_ns", "ns"});
    t.push_back({"faults.retransmits", "count"});
    t.push_back({"faults.shed_rounds", "count"});
    t.push_back({"faults.lost_rounds", "count"});
    t.push_back({"obs.timing_overhead_ratio", "ratio"});
    t.push_back({"obs.timed_trials_per_s", "1/s"});
    t.push_back({"obs.timed_reps", "count"});
    t.push_back({"trace.overhead_ratio", "ratio"});
    t.push_back({"trace.traced_trials_per_s", "1/s"});
    t.push_back({"trace.traced_reps", "count"});
    t.push_back({"trace.untraced_trials_per_s", "1/s"});
    t.push_back({"trace.untraced_reps", "count"});
    t.push_back({"trace.spans", "count"});
    t.push_back({"replay.trials", "count"});
    return t;
}

/**
 * Work units completed per wall second of the timed phase: total units
 * over total repetition wall time. On a host whose speed shifts
 * between regimes for seconds at a time this mean is steadier than
 * the median of per-repetition rates.
 */
double
phaseUnitsPerS(const std::vector<Rep> &reps)
{
    std::uint64_t units = 0;
    double wallS = 0.0;
    for (const Rep &r : reps) {
        units += r.outcome.units;
        wallS += r.wallS();
    }
    return static_cast<double>(units) / wallS;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/**
 * Per-layer metrics from replay spans, traced-phase spans and counters.
 * Returns how many engine waves had each count of busy threads.
 */
std::map<std::size_t, std::size_t>
layerMetrics(LayerReport &report, const Workload &w,
             const std::vector<SpanRecord> &replaySpans,
             const ReplayOutcome &replay,
             const std::vector<SpanRecord> &traced,
             const std::vector<Rep> &tracedReps)
{
    // Replay: noise / surface layer calls, MWPM build-vs-blossom split.
    std::map<std::string, std::vector<double>> byLabel;
    for (const SpanRecord &s : replaySpans)
        byLabel[labelName(s.label)].push_back(static_cast<double>(s.durNs()));
    report.setPercentiles("noise.sample_ns", byLabel["noise.sample"]);
    report.setPercentiles("surface.extract_ns", byLabel["surface.extract"]);
    report.setPercentiles("surface.classify_ns", byLabel["surface.classify"]);
    report.set("noise.flips_per_trial", ratio(replay.flips, replay.trials));
    report.set("surface.defects_per_syndrome",
               ratio(replay.defects, replay.syndromes));
    report.set("replay.trials", static_cast<double>(replay.trials));
    for (const char *phase : {"graph_build", "blossom"}) {
        auto &v = byLabel[std::string("decoders.mwpm.window.d9.") + phase];
        if (!v.empty())
            report.set(std::string("decoders.mwpm.window.d9.") + phase +
                           "_ns_p50",
                       percentile(v, 0.5));
    }

    // Traced phase: decoder spans (per lane) and job spans.
    std::map<std::string, std::vector<double>> decodeNs;
    const std::uint16_t jobLabel = internLabel("stream.job");
    std::set<std::uint64_t> jobIds;
    std::uint64_t jobNs = 0, jobRounds = 0;
    for (const SpanRecord &s : traced)
        if (s.label == jobLabel) {
            jobIds.insert(s.id);
            jobNs += s.durNs();
            jobRounds += s.lanes;
        }
    std::uint64_t decodeInJobsNs = 0;
    for (const SpanRecord &s : traced) {
        const std::string &label = labelName(s.label);
        if (!isDecoderLabel(label))
            continue;
        decodeNs[label + "_ns"].push_back(
            static_cast<double>(s.durNs()) / std::max<std::uint32_t>(1, s.lanes));
        if (jobIds.count(s.parent))
            decodeInJobsNs += s.durNs();
    }
    for (auto &[prefix, v] : decodeNs)
        report.setPercentiles(prefix, std::move(v));
    if (jobRounds) {
        report.set("stream.host_ns_per_round", ratio(jobNs, jobRounds));
        report.set("stream.decode_frac", ratio(decodeInJobsNs, jobNs));
    }

    // Engine: busy fraction, straggler tail, tasks and steals per rep.
    // The tail of a wave runs from the first of its busy threads going
    // idle for good to the wave's end: with 2 shards on 4 threads it is
    // the straggler shard's lead over the other.
    std::vector<double> busy, tail, tasks, steals;
    std::map<std::size_t, std::size_t> busyThreads;
    for (const Rep &rep : tracedReps) {
        std::uint64_t decodeSum = 0;
        double tailS = 0.0;
        for (const auto &[ws, we] : rep.outcome.waves) {
            std::map<std::uint16_t, std::uint64_t> lastEnd;
            for (const SpanRecord &s : traced) {
                if (s.startNs < ws || s.endNs > we)
                    continue;
                const std::string &label = labelName(s.label);
                const bool decode = isDecoderLabel(label);
                if (decode)
                    decodeSum += s.durNs();
                if (decode || s.label == jobLabel)
                    lastEnd[s.thread] = std::max(lastEnd[s.thread], s.endNs);
            }
            ++busyThreads[lastEnd.size()];
            if (lastEnd.empty())
                continue;
            std::uint64_t firstIdle = we;
            for (const auto &[thread, end] : lastEnd)
                firstIdle = std::min(firstIdle, end);
            tailS += 1e-9 * static_cast<double>(we - firstIdle);
        }
        busy.push_back(1e-9 * static_cast<double>(decodeSum) /
                       (w.threads() * rep.wallS()));
        tail.push_back(tailS);
        tasks.push_back(static_cast<double>(rep.outcome.tasks));
        steals.push_back(static_cast<double>(rep.outcome.steals));
    }
    report.set("engine.decode_busy_frac", median(busy));
    report.set("engine.tail_s", median(tail));
    report.set("engine.tasks", median(tasks));
    report.set("engine.steals", median(steals));

    // Deterministic counters of the first traced repetition.
    const RepOutcome &o = tracedReps.front().outcome;
    const auto &c = o.counters;
    if (c.value("decoder.mesh.decodes"))
        report.set("core.mesh.cycles_per_decode",
                   ratio(c.value("decoder.mesh.cycles"),
                         c.value("decoder.mesh.decodes")));
    if (c.value("decoder.uf.decodes")) {
        report.set("decoders.uf.growth_rounds",
                   ratio(c.value("decoder.uf.growth_rounds"),
                         c.value("decoder.uf.decodes")));
        report.set("decoders.uf.peel_len",
                   ratio(c.value("decoder.uf.peel_flips"),
                         c.value("decoder.uf.decodes")));
    }
    if (c.value("decoder.mwpm.decodes"))
        report.set("decoders.mwpm.augmentations",
                   ratio(c.value("decoder.mwpm.augmentations"),
                         c.value("decoder.mwpm.decodes")));
    if (c.value("decoder.tiered.decodes"))
        report.set("decoders.tiered.escalated_frac",
                   ratio(c.value("decoder.tiered.escalations"),
                         c.value("decoder.tiered.decodes")));
    if (c.value("stream.rounds")) {
        report.set("stream.max_backlog_rounds",
                   static_cast<double>(o.maxBacklogRounds));
        report.set("stream.sim_p99_service_ns", o.simP99ServiceNs);
        report.set("faults.retransmits", static_cast<double>(o.retransmits));
        report.set("faults.shed_rounds", static_cast<double>(o.shedRounds));
        report.set("faults.lost_rounds", static_cast<double>(o.lostRounds));
    }
    return busyThreads;
}

std::string
jsonList(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? ", " : "") + quoted(items[i]);
    return out + "]";
}

int
run(const Args &args)
{
    auto workload = makeWorkload(args.workload);
    if (!workload)
        usage("unknown workload '" + args.workload + "'");
    Workload &w = *workload;

    if (args.emitReference) {
        if (args.seed != kDefaultSeed)
            usage("--emit-reference needs the default seed");
        w.setup();
        for (const CellOutcome &c : w.run(kDefaultSeed, false).cells)
            std::cout << w.name() << " " << c.label << " " << hex(c.fingerprint)
                      << "\n";
        return 0;
    }

    const bool useReference = args.seed == kDefaultSeed;
    Checker checker(useReference ? loadReference(args.reference, w.name())
                                 : std::map<std::string, std::string>{},
                    useReference);

    // Untraced runs keep no spans; the replay then only checks outputs.
    setRecording(args.trace);
    const ReplayOutcome replay =
        runReplay(w.replaySpecs(), args.seed, kReplayTrials);
    const std::vector<SpanRecord> replaySpans = collectSpans();
    checker.checkGroups(replay.groups);

    MetricMap metrics;
    std::map<std::string, std::string> absent;
    std::map<std::string, std::size_t> samples;
    std::vector<double> setupS;
    std::ostringstream basis;
    if (!args.trace) {
        const std::vector<Rep> reps = runPhase(w, args.seed, false, args.seconds);
        checker.checkReps(reps, nullptr, "untraced");
        for (const Rep &r : reps)
            setupS.push_back(r.setupS);
        double cpuS = 0.0;
        std::uint64_t units = 0;
        std::vector<double> tps;
        for (const Rep &r : reps) {
            cpuS += r.cpuS;
            units += r.outcome.units;
            tps.push_back(r.unitsPerS());
        }
        metrics.push_back({"trials_per_s", {phaseUnitsPerS(reps), "1/s"}});
        metrics.push_back(
            {"cpu_us_per_trial", {1e6 * cpuS / static_cast<double>(units), "us"}});
        metrics.push_back({"setup_s", {median(setupS), "s"}});
        metrics.push_back({"peak_rss_mb", {peakRssMb(), "MB"}});
        basis << "\"reps\": " << reps.size() << ", \"units_per_rep\": "
              << reps.front().outcome.units << ", \"rep_trials_per_s\": [";
        for (std::size_t i = 0; i < tps.size(); ++i)
            basis << (i ? ", " : "") << tps[i];
        basis << "]";
    } else {
        const double third = args.seconds / 3.0;
        const std::size_t cap = kTracedPhaseReps;
        const std::vector<Rep> base = runPhase(w, args.seed, false, third, cap);
        nisqpp::obs::setTimingCollection(true);
        const std::vector<Rep> timed = runPhase(w, args.seed, false, third, cap);
        nisqpp::obs::setTimingCollection(false);
        const std::vector<Rep> traced = runPhase(w, args.seed, true, third, cap);
        const std::vector<SpanRecord> tracedSpans = collectSpans();
        checker.checkReps(base, nullptr, "untraced");
        checker.checkReps(timed, &base, "obs timing on");
        checker.checkReps(traced, &base, "traced");
        for (const Rep &r : base)
            setupS.push_back(r.setupS);

        LayerReport report;
        const std::map<std::size_t, std::size_t> busyThreads =
            layerMetrics(report, w, replaySpans, replay, tracedSpans, traced);
        const double baseTps = phaseUnitsPerS(base);
        const double timedTps = phaseUnitsPerS(timed);
        const double tracedTps = phaseUnitsPerS(traced);
        report.set("obs.timing_overhead_ratio", baseTps / timedTps);
        report.set("obs.timed_trials_per_s", timedTps);
        report.set("obs.timed_reps", static_cast<double>(timed.size()));
        report.set("trace.overhead_ratio", baseTps / tracedTps);
        report.set("trace.traced_trials_per_s", tracedTps);
        report.set("trace.traced_reps", static_cast<double>(traced.size()));
        report.set("trace.untraced_trials_per_s", baseTps);
        report.set("trace.untraced_reps", static_cast<double>(base.size()));
        report.set("trace.spans", static_cast<double>(tracedSpans.size()));
        metrics = report.emit(layerTable(), absent);
        samples = report.samples();
        basis << "\"reps\": {\"untraced\": " << base.size()
              << ", \"obs_timing\": " << timed.size()
              << ", \"traced\": " << traced.size()
              << "}, \"dropped_spans\": " << droppedSpans()
              << ", \"busy_threads_per_wave\": {";
        for (auto it = busyThreads.begin(); it != busyThreads.end(); ++it)
            basis << (it == busyThreads.begin() ? "" : ", ")
                  << quoted(std::to_string(it->first)) << ": " << it->second;
        basis << "}";

        if (!args.outDir.empty()) {
            const std::string path = args.outDir + "/trace-" + w.name() +
                                     "-seed" + std::to_string(args.seed) +
                                     ".json";
            if (!writeChromeTrace(path, {&replaySpans, &tracedSpans},
                                  kTraceFileSpans))
                std::cerr << "perfbench: cannot write " << path << "\n";
        }
    }

    // Detail line: host fingerprint, bases, absences, failures.
    std::ostringstream detail;
    detail << "{\"workload\": " << quoted(w.name()) << ", \"seed\": " << args.seed
           << ", \"trace\": " << args.trace << ", \"threads\": " << w.threads()
           << ", \"host\": " << hostFingerprintJson(args.gitRev, args.srcHash)
           << ", \"setup_s\": [";
    for (std::size_t i = 0; i < setupS.size(); ++i)
        detail << (i ? ", " : "") << setupS[i];
    detail << "], " << basis.str() << ", \"reference_checked\": "
           << (useReference ? "true" : "false") << ", \"samples\": {";
    bool first = true;
    for (const auto &[name, n] : samples) {
        detail << (first ? "" : ", ") << quoted(name) << ": " << n;
        first = false;
    }
    detail << "}, \"absent\": {";
    first = true;
    for (const auto &[name, why] : absent) {
        detail << (first ? "" : ", ") << quoted(name) << ": " << quoted(why);
        first = false;
    }
    detail << "}, \"failures\": " << jsonList(checker.failures()) << "}";

    std::ostringstream result;
    const bool correct = checker.failed() == 0;
    result << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << checker.attempted()
           << ", \"failed\": " << checker.failed()
           << ", \"metrics\": " << metricsJson(metrics) << "}";

    if (!args.outDir.empty()) {
        const std::string path = args.outDir + "/result-" + w.name() + "-seed" +
                                 std::to_string(args.seed) + "-trace" +
                                 std::to_string(args.trace) + ".json";
        std::ofstream out(path);
        out << "{\"detail\": " << detail.str() << ", \"result\": " << result.str()
            << "}\n";
        if (!out)
            std::cerr << "perfbench: cannot write " << path << "\n";
    }
    for (const std::string &f : checker.failures())
        std::cerr << "perfbench: check failed: " << f << "\n";
    std::cout << detail.str() << "\n" << result.str() << std::endl;
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
