/**
 * @file
 * Randomized fault-plan torture harness for the streaming pipeline:
 * the executable proof that fault injection plus every recovery policy
 * combination preserves the pipeline's core invariants.
 *
 *   stream_torture [--plans N] [--seed S]
 *
 * Each plan draws a random operating point (distance, cycle time,
 * horizon, fault mix, recovery policy combo, decoder — including the
 * tiered decoder under a decode deadline) from a seeded generator and
 * runs it through runStream three times, asserting per plan:
 *
 *   1. completion — the run returns (a deadlock would hang the
 *      harness into the ctest timeout);
 *   2. conservation — every produced round is accounted for exactly
 *      once: rounds == decoded + carried + lost + shed + merged, and
 *      dedupRounds == duplicates injected;
 *   3. monotone virtual clock — no completion time ran backwards, and
 *      the drain time is non-negative;
 *   4. determinism — the second run's full result fingerprint
 *      (counters and exact double bit patterns) is byte-identical;
 *   5. batch replay — a third run with batchLanes in [2, 64] (drawn
 *      from the plan's seed, so the plan stream itself is unchanged)
 *      has the same fingerprint: the batched consumer is exact under
 *      faults, and falls back cleanly where it does not apply.
 *
 * A final cross-check runs the fault_sweep scenario at --threads 1 and
 * --threads 4 and requires byte-identical CSV output, pinning the
 * thread-count invariance of the whole scenario fold. Exit 0 = all
 * plans survived; any violation prints the offending plan's parameters
 * and exits 1.
 */

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/rng.hh"
#include "core/mesh_config.hh"
#include "decoders/decoder.hh"
#include "engine/scenario.hh"
#include "faults/fault_plan.hh"
#include "sim/experiment.hh"
#include "stream/stream_sim.hh"
#include "surface/lattice.hh"

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0 << " [--plans N] [--seed S]\n";
    std::exit(2);
}

[[noreturn]] void
fail(const std::string &what)
{
    std::cerr << "stream_torture: FAIL: " << what << "\n";
    std::exit(1);
}

/** Strict whole-token unsigned parse (no atoi partial-parse traps). */
std::uint64_t
unsignedValue(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        fail(flag + ": expected an unsigned integer, got '" + text +
             "'");
    return static_cast<std::uint64_t>(v);
}

/** One randomized operating point: everything runStream consumes. */
struct Plan
{
    int distance = 3;
    std::string decoder; ///< family name, or "tiered"
    nisqpp::StreamConfig config;
};

/** Draw a random fault spec + recovery policy combo from @p rng. */
Plan
drawPlan(nisqpp::Rng &rng)
{
    using nisqpp::faults::RecoveryPolicy;
    using nisqpp::faults::ShedMode;

    Plan plan;
    plan.distance = rng.bernoulli(0.5) ? 3 : 5;

    const char *decoders[] = {"union_find", "greedy", "mwpm", "tiered"};
    plan.decoder = decoders[rng.uniformInt(4)];

    nisqpp::StreamConfig &config = plan.config;
    config.physicalRate = 0.02 + 0.06 * rng.uniform();
    config.syndromeCycleNs = rng.bernoulli(0.5) ? 400.0 : 1000.0;
    config.rounds = 400 + rng.uniformInt(401);
    config.seed = rng.next();
    config.latency =
        plan.decoder == "tiered"
            ? nisqpp::StreamLatencyModel::tiered("union_find",
                                                 plan.distance)
            : nisqpp::StreamLatencyModel::forFamily(plan.decoder,
                                                    plan.distance);

    nisqpp::faults::FaultSpec &spec = config.faults;
    spec.dropRate = 0.25 * rng.uniform();
    spec.corruptRate = 0.25 * rng.uniform();
    spec.duplicateRate = 0.2 * rng.uniform();
    spec.delayRate = 0.25 * rng.uniform();
    spec.delayCycles = 1 + rng.uniformInt(8);
    spec.stallRate = 0.25 * rng.uniform();
    spec.stallFactor = 1.0 + 7.0 * rng.uniform();
    spec.decodeFailRate = 0.1 * rng.uniform();
    spec.seed = rng.next();

    RecoveryPolicy &policy = config.recovery;
    policy.parityRetransmit = rng.bernoulli(0.5);
    policy.maxRetransmits = 1 + rng.uniformInt(4);
    policy.retransmitNs = 50.0 + 200.0 * rng.uniform();
    policy.carryForward = rng.bernoulli(0.5);
    // The deadline policy only bites on the tiered decoder (it commits
    // the provisional mesh answer), but must be harmless on any.
    if (rng.bernoulli(0.5))
        policy.deadlineNs = 300.0 + 1200.0 * rng.uniform();
    if (rng.bernoulli(0.5)) {
        policy.shedThreshold = 4 + rng.uniformInt(29);
        policy.shedMode = rng.bernoulli(0.5) ? ShedMode::DropOldest
                                             : ShedMode::XorMerge;
        policy.mergeNs = 10.0 + 40.0 * rng.uniform();
    }
    return plan;
}

std::string
describe(const Plan &plan)
{
    const nisqpp::StreamConfig &c = plan.config;
    std::ostringstream os;
    os << "d=" << plan.distance << " decoder=" << plan.decoder
       << " rounds=" << c.rounds << " seed=" << c.seed
       << " fault-seed=" << c.faults.seed
       << " drop=" << c.faults.dropRate
       << " corrupt=" << c.faults.corruptRate
       << " dup=" << c.faults.duplicateRate
       << " delay=" << c.faults.delayRate
       << " stall=" << c.faults.stallRate
       << " fail=" << c.faults.decodeFailRate
       << " retransmit=" << c.recovery.parityRetransmit
       << " carry=" << c.recovery.carryForward
       << " deadline=" << c.recovery.deadlineNs
       << " shed=" << c.recovery.shedThreshold;
    return os.str();
}

/** Exact (bit-level) textual fingerprint of a streaming result. */
std::string
fingerprint(const nisqpp::StreamingResult &r)
{
    const nisqpp::faults::FaultCounts &fc = r.faults;
    char buf[128];
    std::ostringstream os;
    auto hexDouble = [&](double v) {
        std::snprintf(buf, sizeof buf, "%a", v);
        os << buf << '\n';
    };
    os << r.rounds << '\n' << r.failures << '\n';
    hexDouble(r.logicalErrorRate);
    hexDouble(r.serviceNs.mean());
    hexDouble(r.sojournNs.mean());
    hexDouble(r.servicePercentiles.p99);
    hexDouble(r.drainNs);
    hexDouble(r.fEmpirical);
    os << r.maxQueueDepth << '\n'
       << r.maxBacklogRounds << '\n'
       << r.overflowRounds << '\n'
       << r.escalations << '\n'
       << r.repairs << '\n';
    os << fc.drops << ' ' << fc.corruptions << ' ' << fc.duplicates
       << ' ' << fc.delays << ' ' << fc.stalls << ' '
       << fc.decodeFailures << ' ' << fc.retransmits << ' '
       << fc.carriedForward << ' ' << fc.lostRounds << ' '
       << fc.corruptDecodes << ' ' << fc.deadlineCommits << ' '
       << fc.deadlineClamps << ' ' << fc.shedRounds << ' '
       << fc.mergedRounds << ' ' << fc.dedupRounds << ' '
       << fc.decodedRounds << '\n';
    return os.str();
}

/** Batch replay lane count in [2, 64], a pure function of the plan. */
std::size_t
replayLanes(const Plan &plan)
{
    return 2 + static_cast<std::size_t>(plan.config.seed % 63);
}

nisqpp::StreamingResult
runPlan(const Plan &plan, std::size_t batchLanes = 1)
{
    // Fresh lattice + decoder per run: determinism must hold from
    // construction, not from reused warm state.
    nisqpp::SurfaceLattice lattice(plan.distance);
    nisqpp::StreamConfig config = plan.config;
    config.lattice = &lattice;
    config.batchLanes = batchLanes;
    std::unique_ptr<nisqpp::Decoder> decoder;
    if (plan.decoder == "tiered")
        decoder = nisqpp::tieredDecoderFactory(
            nisqpp::MeshConfig::finalDesign(), "union_find",
            0.9)(lattice, nisqpp::ErrorType::Z);
    else
        decoder = nisqpp::decoderFamilies()
                      [nisqpp::decoderFamilyIndex(plan.decoder)]
                          .factory(lattice, nisqpp::ErrorType::Z);
    return nisqpp::runStream(config, *decoder);
}

void
checkInvariants(const Plan &plan, const nisqpp::StreamingResult &r)
{
    const nisqpp::faults::FaultCounts &fc = r.faults;
    const std::uint64_t accounted = fc.decodedRounds +
                                    fc.carriedForward + fc.lostRounds +
                                    fc.shedRounds + fc.mergedRounds;
    if (accounted != static_cast<std::uint64_t>(r.rounds))
        fail("round conservation violated (" +
             std::to_string(accounted) + " accounted of " +
             std::to_string(r.rounds) + "): " + describe(plan));
    if (fc.dedupRounds != fc.duplicates)
        fail("duplicate ledger mismatch (dedup=" +
             std::to_string(fc.dedupRounds) +
             " injected=" + std::to_string(fc.duplicates) +
             "): " + describe(plan));
    if (!r.clockMonotone)
        fail("virtual clock ran backwards: " + describe(plan));
    if (!(r.drainNs >= 0.0))
        fail("negative drain time: " + describe(plan));
}

/** fault_sweep CSV at a given thread count (tiny trial scale). */
std::string
scenarioCsv(int threads)
{
    nisqpp::RunOptions options;
    options.format = nisqpp::OutputFormat::Csv;
    options.trialsScale = 0.05;
    options.seedSet = true;
    options.seed = 0x57a6eULL;
    options.threads = threads;
    std::ostringstream os;
    if (nisqpp::runScenario("fault_sweep", options, os) != 0)
        fail("fault_sweep scenario run failed at --threads " +
             std::to_string(threads));
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t plans = 25;
    std::uint64_t seed = 0x70a7eULL;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const std::string value = argv[++i];
        if (arg == "--plans") {
            plans = unsignedValue(arg, value);
            if (plans < 1 || plans > 100000)
                fail("--plans: expected 1..100000, got '" + value +
                     "'");
        } else if (arg == "--seed") {
            seed = unsignedValue(arg, value);
        } else {
            usage(argv[0]);
        }
    }

    nisqpp::Rng rng(seed);
    for (std::uint64_t i = 0; i < plans; ++i) {
        const Plan plan = drawPlan(rng);
        const nisqpp::StreamingResult first = runPlan(plan);
        checkInvariants(plan, first);
        const nisqpp::StreamingResult second = runPlan(plan);
        if (fingerprint(first) != fingerprint(second))
            fail("replay diverged: " + describe(plan));
        const std::size_t lanes = replayLanes(plan);
        if (fingerprint(runPlan(plan, lanes)) != fingerprint(first))
            fail("batch replay at " + std::to_string(lanes) +
                 " lanes diverged: " + describe(plan));
        std::cout << "stream_torture: plan " << (i + 1) << "/" << plans
                  << " ok (" << describe(plan) << ")\n";
    }

    const std::string one = scenarioCsv(1);
    const std::string four = scenarioCsv(4);
    if (one != four)
        fail("fault_sweep CSV differs between --threads 1 and 4");
    std::cout << "stream_torture: fault_sweep thread-invariance ok\n";
    std::cout << "stream_torture: PASS (" << plans << " plans)\n";
    return 0;
}
