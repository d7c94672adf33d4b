#include "stream/stream_sim.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "decoders/workspace.hh"
#include "noise/noise_model.hh"
#include "obs/trace.hh"
#include "stream/stream_queue.hh"
#include "stream/syndrome_stream.hh"
#include "surface/logical.hh"
#include "surface/syndrome_window.hh"

namespace nisqpp {

namespace {

/** One round in flight: emitted, transported, awaiting decode. */
struct Delivery
{
    faults::RoundFaults rf; ///< empty on fault-free runs
    const Syndrome *emitted = nullptr; ///< what the observer sees
    /** Emitted, corrupted or carried copy; null = no per-round decode. */
    const Syndrome *input = nullptr;
    bool closesWindow = false; ///< decode the whole window instead
    bool duplicated = false;
    bool emitParity = false; ///< crossing parity at emit (batched groups)
    double arriveNs = 0.0;
};

/**
 * Exact percentile of ascending @p sorted: the smallest value v with
 * P(X <= v) >= q (0 for an empty sample).
 */
double
percentileOfSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::max<std::size_t>(rank, 1) - 1];
}

} // namespace

StreamingResult
runStream(const StreamConfig &config, Decoder &decoder,
          TrialWorkspace *workspace, const StreamObserver *observer)
{
    require(config.lattice != nullptr, "runStream: lattice required");
    require(config.rounds > 0, "runStream: rounds must be positive");
    require(config.syndromeCycleNs > 0,
            "runStream: syndrome cycle must be positive");
    require(decoder.type() == ErrorType::Z,
            "runStream: streaming decodes the dephasing (Z) family");

    std::unique_ptr<TrialWorkspace> owned;
    if (!workspace) {
        owned = std::make_unique<TrialWorkspace>();
        workspace = owned.get();
    }
    if (config.latency.meshCycles)
        require(decoder.meshStats() != nullptr,
                "runStream: mesh-cycle latency model needs a decoder "
                "with mesh telemetry");

    const std::size_t w = config.windowRounds;
    if (w > 0)
        require(config.rounds % w == 0,
                "runStream: rounds must be a multiple of windowRounds");
    else
        require(config.measurementFlipRate == 0.0,
                "runStream: measurement noise requires windowRounds "
                "> 0 (per-round decoding cannot see readout flips)");

    // Fault injection and recovery only add to the round pipeline: a
    // run with neither active transports every round with an empty
    // RoundFaults, so it builds no FaultPlan, draws no fault
    // randomness, leaves the ledger all-zero and reports no
    // stream.fault.* metric keys, keeping fault-free runs
    // byte-identical to the goldens that predate this layer.
    const faults::RecoveryPolicy &policy = config.recovery;
    std::unique_ptr<faults::FaultPlan> plan;
    std::unique_ptr<Syndrome> corruptScratch;
    std::unique_ptr<Syndrome> lastGood;
    bool lastGoodValid = false;
    double pendingMergeNs = 0.0;
    if (config.faults.any() || policy.active()) {
        require(w == 0,
                "runStream: fault injection and recovery policies "
                "require the per-round pipeline (windowRounds == 0)");
        policy.validate();
        plan = std::make_unique<faults::FaultPlan>(
            config.faults,
            static_cast<std::uint32_t>(
                config.lattice->numAncilla(ErrorType::Z)));
        corruptScratch =
            std::make_unique<Syndrome>(*config.lattice, ErrorType::Z);
        lastGood =
            std::make_unique<Syndrome>(*config.lattice, ErrorType::Z);
    }

    const NoiseModel model = NoiseModel::dephasing(
        config.physicalRate, config.measurementFlipRate);
    SyndromeStream stream(*config.lattice, model, ErrorType::Z,
                          config.seed, config.syndromeCycleNs);
    StreamQueue queue(config.queueCapacity);
    // Rounded service time of every decode, for exact percentiles.
    std::vector<double> serviceTimes;
    serviceTimes.reserve(w > 0 ? config.rounds / w : config.rounds);

    StreamingResult result;
    faults::FaultCounts &fc = result.faults;
    const double cycle = config.syndromeCycleNs;
    const double endOfProduction =
        static_cast<double>(config.rounds) * cycle;
    const std::size_t stride = std::max<std::size_t>(
        1, config.rounds / std::max<std::size_t>(
               1, config.trajectorySamples > 1
                      ? config.trajectorySamples - 1
                      : 1));

    double consumerFreeNs = 0.0;
    std::size_t completed = 0;
    std::size_t completedByEnd = 0;
    bool parity = false;

    // Windowed-consumer state: w measured rounds accumulate, then a
    // perfect commit round closes the window, the decode happens once
    // and its correction is committed at the boundary.
    std::unique_ptr<SyndromeWindow> window;
    std::unique_ptr<Syndrome> commitSyn;
    if (w > 0) {
        window = std::make_unique<SyndromeWindow>(
            *config.lattice, ErrorType::Z, static_cast<int>(w) + 1);
        commitSyn =
            std::make_unique<Syndrome>(*config.lattice, ErrorType::Z);
    }
    const Correction emptyCorrection; ///< observer arg between commits

    // The consumer decodes a group of up to batchLanes rounds through
    // the decoder's lane-packed decodeBatch in one call. This is
    // possible because the decode loop is *round-synchronous*: the
    // only coupling between consecutive decodes is the committed
    // correction, and for a decoder whose correction annihilates its
    // syndrome the uncorrected (raw) syndromes telescope — S_eff[j] =
    // S_raw[j] XOR S_raw[j-1] is exactly the syndrome a group of one
    // would have emitted after round j-1's commit. Crossing parities
    // recorded at emit time supply the per-round failure accounting
    // (the committed state is missing rounds j+1.. of the group's
    // errors, whose parity contribution is emitParity[last] XOR
    // emitParity[j]), and the commit stage then replays the group
    // round by round, so every result field, metric and observer
    // callback is byte-identical to groups of one. Configurations the
    // equivalence argument does not cover decode in groups of one, and
    // a round struck by an injected fault always forms its own group.
    const std::size_t maxGroup =
        config.batchLanes > 1 && w == 0 &&
                decoder.correctionClearsSyndrome() &&
                decoder.tieredStats() == nullptr &&
                policy.shedThreshold == 0
            ? config.batchLanes
            : 1;
    std::vector<Delivery> group(maxGroup);
    // Batched groups copy their syndromes out of the stream's buffer.
    std::vector<Syndrome> lanes;
    std::vector<const Syndrome *> lanePtrs;
    if (maxGroup > 1) {
        lanes.assign(maxGroup, Syndrome(*config.lattice, ErrorType::Z));
        for (const Syndrome &lane : lanes)
            lanePtrs.push_back(&lane);
    }

    // Commit @p corr and return the resulting crossing parity, less
    // @p futureParity: the parity of errors emitted later in a batched
    // group, which the committed state already carries. A repaired
    // tiered decode's provisional (mesh) frame is final XOR repair: the
    // tiered escalation/repair/frame-flip counters accrue here, and
    // with @p provisionalOnly (a decode deadline fired) the repair is
    // applied on top and the commit stops on the provisional frame —
    // the exact tier's answer is abandoned, so no repair is counted.
    auto commitCorrection = [&](const Correction &corr,
                                bool provisionalOnly, bool futureParity) {
        const TieredDecodeStats *ts = decoder.tieredStats();
        if (ts && ts->escalated)
            ++result.escalations;
        corr.applyTo(stream.state(), ErrorType::Z);
        const bool finalParity =
            crossingParity(stream.state(), ErrorType::Z) != futureParity;
        if (!ts || !ts->repaired)
            return finalParity;
        for (int d : ts->repairFlips)
            stream.state().flip(ErrorType::Z, d);
        const bool provisionalParity =
            crossingParity(stream.state(), ErrorType::Z);
        if (provisionalOnly)
            return provisionalParity;
        for (int d : ts->repairFlips)
            stream.state().flip(ErrorType::Z, d);
        ++result.repairs;
        if (finalParity != provisionalParity)
            ++result.repairFrameFlips;
        return finalParity;
    };

    auto doneOf = [&](const StreamRound &entry) {
        return std::max(consumerFreeNs, entry.arriveNs) + entry.serviceNs;
    };
    auto completeFront = [&]() {
        const StreamRound &entry = queue.front();
        const double done = doneOf(entry);
        if (done < consumerFreeNs)
            result.clockMonotone = false;
        consumerFreeNs = done;
        if (entry.duplicate) {
            // Second delivery of a round already handled: discarded by
            // sequence number, so it completes nothing and its queue
            // residence is not a sojourn.
            ++fc.dedupRounds;
        } else {
            result.sojournNs.add(done - entry.arriveNs);
            if (done <= endOfProduction)
                ++completedByEnd;
            ++completed;
        }
        queue.pop();
        return done;
    };

    // The consumer retires every round it finishes before @p tArrive;
    // peeking the completion time keeps FIFO exactness. Idempotent for
    // a repeated @p tArrive.
    auto retireBefore = [&](double tArrive) {
        while (!queue.empty() && doneOf(queue.front()) <= tArrive)
            completeFront();
    };

    // Transport: when round k arrives, what the consumer decodes for
    // it (emitted, corrupted, carried-forward, the closed window or
    // nothing) and the fault events that decided it.
    auto transport = [&](Delivery &dv, std::size_t k) {
        const faults::RoundFaults &rf = dv.rf;
        dv.arriveNs = static_cast<double>(k) * cycle;
        dv.input = dv.emitted;
        dv.duplicated = false;
        dv.closesWindow = false;
        if (window) {
            const int t = static_cast<int>(k % w);
            window->recordRound(t, *dv.emitted);
            dv.input = nullptr;
            if (t + 1 == static_cast<int>(w)) {
                // Close the window with a perfect commit round; it is
                // decoded as one spacetime problem.
                stream.extractPerfectInto(*commitSyn);
                window->recordRound(static_cast<int>(w), *commitSyn);
                dv.closesWindow = true;
            }
            return;
        }

        if (rf.delayCycles > 0) {
            ++fc.delays;
            dv.arriveNs += static_cast<double>(rf.delayCycles) * cycle;
        }
        bool carried = false;   // decode the last clean frame
        bool lost = false;      // no decode at all
        bool corrupted = false; // decode the corrupted copy
        if (rf.transportFault()) {
            if (rf.dropped)
                ++fc.drops;
            else
                ++fc.corruptions;
            const int attempts = rf.retransmitsNeeded + 1;
            if (policy.parityRetransmit &&
                attempts <= policy.maxRetransmits) {
                // Parity caught the fault; bounded re-requests are
                // paid in virtual ns with linear backoff (attempt i
                // costs i * retransmitNs), then the clean round
                // arrives.
                obs::TraceSpan span(obs::Stage::StreamRecover);
                fc.retransmits += static_cast<std::uint64_t>(attempts);
                for (int i = 1; i <= attempts; ++i)
                    dv.arriveNs +=
                        static_cast<double>(i) * policy.retransmitNs;
            } else if (rf.dropped || policy.parityRetransmit) {
                // A drop, or a corruption parity caught but could not
                // recover within the re-request budget.
                if (policy.carryForward && lastGoodValid)
                    carried = true;
                else
                    lost = true;
            } else {
                // No parity protection: the corruption is silent and
                // the consumer decodes the corrupted round.
                corrupted = true;
            }
        }
        // Only delivered rounds can arrive twice.
        dv.duplicated = rf.duplicated && !lost && !carried;
        if (dv.duplicated)
            ++fc.duplicates;
        if (lost) {
            ++fc.lostRounds;
            dv.input = nullptr;
            return;
        }

        // Load shedding: above the backlog threshold the consumer
        // refuses the decode. The lifetime syndrome is cumulative, so
        // the next decoded round supersedes a shed one's information —
        // DropOldest discards it outright, XorMerge folds it into the
        // next decode for a small surcharge. Shedding keeps groups at
        // one round, so the queue already holds every earlier round.
        if (policy.shedThreshold > 0) {
            retireBefore(static_cast<double>(k) * cycle);
            if (queue.depth() >= policy.shedThreshold) {
                if (policy.shedMode == faults::ShedMode::DropOldest) {
                    ++fc.shedRounds;
                } else {
                    ++fc.mergedRounds;
                    pendingMergeNs += policy.mergeNs;
                }
                dv.input = nullptr;
                return;
            }
        }

        if (carried) {
            obs::TraceSpan span(obs::Stage::StreamRecover);
            dv.input = lastGood.get();
            ++fc.carriedForward;
            return;
        }
        if (corrupted) {
            *corruptScratch = *dv.emitted;
            for (int i = 0; i < rf.corruptBits; ++i)
                corruptScratch->flip(static_cast<int>(
                    rf.corruptAncilla[static_cast<std::size_t>(i)]));
            dv.input = corruptScratch.get();
            ++fc.corruptDecodes;
        }
        if (plan)
            ++fc.decodedRounds;
    };

    // Commit round k, lane i of an n-round group: its modeled service
    // time, the correction, the recovery ledger, the observer, and the
    // queue push with the service / backlog / trajectory telemetry.
    auto commitRound = [&](std::size_t i, std::size_t n, std::size_t k) {
        const Delivery &dv = group[i];
        retireBefore(static_cast<double>(k) * cycle);
        const bool decoded = dv.input || dv.closesWindow;
        const Correction *committed = &emptyCorrection;
        double serviceNs = 0.0;
        if (decoded) {
            const Correction &corr =
                n == 1 ? workspace->correction
                       : workspace->laneCorrections[i];
            const TieredDecodeStats *ts = decoder.tieredStats();
            serviceNs = config.latency.decodeNs(
                decoder.meshStats(i), dv.closesWindow
                                          ? window->eventWeight()
                                          : dv.input->weight());
            // Escalated decodes pay the mesh attempt plus the
            // software tier.
            if (ts && ts->escalated)
                serviceNs += config.latency.escalateNs;
            serviceNs += std::exchange(pendingMergeNs, 0.0);
            if (dv.rf.stallFactor != 1.0) {
                ++fc.stalls;
                serviceNs *= dv.rf.stallFactor;
            }
            bool provisionalOnly = false;
            if (policy.deadlineNs > 0.0 &&
                serviceNs > policy.deadlineNs) {
                // Deadline miss: an escalated tiered decode commits
                // its provisional mesh answer instead of waiting out
                // the exact tier; anything else just has its modeled
                // service clamped to the budget.
                provisionalOnly = ts && ts->escalated;
                ++(provisionalOnly ? fc.deadlineCommits
                                   : fc.deadlineClamps);
                serviceNs = policy.deadlineNs;
            }
            if (dv.rf.decodeFailed) {
                // Transient decode failure: the service time is paid
                // but no correction lands; the residual errors stay
                // for the next round's decode.
                ++fc.decodeFailures;
            } else {
                bool nowParity;
                {
                    obs::TraceSpan commitSpan(obs::Stage::StreamCommit);
                    nowParity = commitCorrection(
                        corr, provisionalOnly,
                        dv.emitParity != group[n - 1].emitParity);
                }
                if (nowParity != parity)
                    ++result.failures;
                parity = nowParity;
                committed = &corr;
            }
            if (policy.carryForward && dv.input == dv.emitted) {
                *lastGood = *dv.emitted;
                lastGoodValid = true;
            }
            if (dv.closesWindow) {
                // Re-arm: the next window's round-0 events are
                // measured against the post-commit perfect frame.
                ++result.windows;
                stream.extractPerfectInto(*commitSyn);
                window->reset();
                window->setBaseline(*commitSyn);
            }
        }
        if (observer && *observer)
            (*observer)(k, *dv.emitted, *committed);

        // Only rounds that actually ran a decode enter the service
        // statistics: non-closing windowed rounds cost no decode work,
        // and their zero "services" would dilute the percentiles
        // relative to the per-round path. (They still pass through the
        // queue with zero service so arrival accounting is unchanged.)
        if (decoded) {
            result.serviceNs.add(serviceNs);
            serviceTimes.push_back(
                static_cast<double>(std::llround(serviceNs)));
        }
        queue.push({k, dv.arriveNs, serviceNs, false});
        if (dv.duplicated)
            queue.push({k, dv.arriveNs, 0.0, true});
        ++result.rounds;

        const std::size_t backlog = (k + 1) - completed;
        result.maxBacklogRounds =
            std::max(result.maxBacklogRounds, backlog);
        result.maxQueueDepth =
            std::max(result.maxQueueDepth, queue.fastDepth());
        if (k % stride == 0 || k + 1 == config.rounds)
            result.trajectory.push_back(
                {k, backlog, queue.fastDepth()});
    };

    // Produce and transport a group, decode it, commit it round by
    // round: decode results are computed round-synchronously, only
    // their cost is replayed against the virtual clock. Each round's
    // faults are drawn once, a round ahead, so a fault can end a group.
    auto faultsFor = [&](std::size_t k) {
        return plan ? plan->eventFor(k) : faults::RoundFaults{};
    };
    faults::RoundFaults ahead = faultsFor(0);
    std::size_t n = 0;
    for (std::size_t k = 0; k < config.rounds; k += n) {
        n = 0;
        do {
            Delivery &dv = group[n];
            dv.rf = ahead;
            {
                obs::TraceSpan produceSpan(obs::Stage::StreamProduce);
                dv.emitted = &stream.emit();
            }
            if (maxGroup > 1) {
                lanes[n] = *dv.emitted;
                dv.emitted = &lanes[n];
                dv.emitParity =
                    crossingParity(stream.state(), ErrorType::Z);
            }
            transport(dv, k + n);
            ++n;
            if (k + n < config.rounds)
                ahead = faultsFor(k + n);
        } while (n < maxGroup && k + n < config.rounds &&
                 !group[0].rf.anyFault() && !ahead.anyFault());

        if (n > 1) {
            // Telescope raw -> effective syndromes in place (backwards,
            // so each XOR still sees its raw predecessor).
            for (std::size_t i = n; i-- > 1;)
                lanes[i].xorMask(lanes[i - 1].bits());
            obs::TraceSpan decodeSpan(obs::Stage::StreamDecode);
            decoder.decodeBatch(lanePtrs.data(), n, *workspace);
        } else if (group[0].closesWindow) {
            obs::TraceSpan decodeSpan(obs::Stage::StreamDecode);
            decoder.decodeWindow(*window, *workspace);
        } else if (group[0].input) {
            obs::TraceSpan decodeSpan(obs::Stage::StreamDecode);
            decoder.decode(*group[0].input, *workspace);
        }
        for (std::size_t i = 0; i < n; ++i)
            commitRound(i, n, k + i);
    }

    // Production is over; drain whatever is still pending.
    double lastDone = consumerFreeNs;
    while (!queue.empty())
        lastDone = completeFront();

    result.overflowRounds = queue.overflowCount();
    result.finalBacklogRounds = result.rounds - completedByEnd;
    result.backlogGrowthPerRound =
        static_cast<double>(result.finalBacklogRounds) /
        static_cast<double>(result.rounds);
    result.drainNs = std::max(0.0, lastDone - endOfProduction);
    // f is normalized per *produced round* (total service over total
    // production time), so windowed runs amortize each window's single
    // decode over its rounds and stay comparable to the w == 0 path.
    result.fEmpirical =
        result.serviceNs.mean() *
        static_cast<double>(result.serviceNs.count()) /
        (static_cast<double>(result.rounds) * cycle);
    result.logicalErrorRate =
        static_cast<double>(result.failures) /
        static_cast<double>(w > 0 ? result.windows : result.rounds);
    std::sort(serviceTimes.begin(), serviceTimes.end());
    result.servicePercentiles.p50 = percentileOfSorted(serviceTimes, 0.50);
    result.servicePercentiles.p90 = percentileOfSorted(serviceTimes, 0.90);
    result.servicePercentiles.p99 = percentileOfSorted(serviceTimes, 0.99);
    result.servicePercentiles.max = result.serviceNs.max();

    // Deterministic stream.* counters: everything below is a function
    // of (config, seed) alone, so scenario-level metric folds stay
    // thread-count-invariant. The decoder is owned by this run's cell,
    // so its exported work counters are exactly this run's work.
    result.metrics.add("stream.rounds", result.rounds);
    result.metrics.add("stream.windows", result.windows);
    result.metrics.add("stream.failures", result.failures);
    result.metrics.add("stream.queue.spills", result.overflowRounds);
    result.metrics.add("stream.backlog.final_rounds",
                       result.finalBacklogRounds);
    result.metrics.maxGauge("stream.queue.max_fast_depth",
                            result.maxQueueDepth);
    result.metrics.maxGauge("stream.backlog.max_rounds",
                            result.maxBacklogRounds);
    if (decoder.tieredStats()) {
        result.metrics.add("stream.tiered.escalations",
                           result.escalations);
        result.metrics.add("stream.tiered.repairs", result.repairs);
        result.metrics.add("stream.tiered.frame_flips",
                           result.repairFrameFlips);
    }
    // stream.fault.* keys exist only on fault/recovery-active runs so
    // fault-free metric reports (and every pre-fault golden) keep
    // their exact key set.
    if (plan) {
        result.metrics.add("stream.fault.drops", fc.drops);
        result.metrics.add("stream.fault.corruptions", fc.corruptions);
        result.metrics.add("stream.fault.duplicates", fc.duplicates);
        result.metrics.add("stream.fault.delays", fc.delays);
        result.metrics.add("stream.fault.stalls", fc.stalls);
        result.metrics.add("stream.fault.decode_failures",
                           fc.decodeFailures);
        result.metrics.add("stream.fault.retransmits", fc.retransmits);
        result.metrics.add("stream.fault.carried_forward",
                           fc.carriedForward);
        result.metrics.add("stream.fault.lost_rounds", fc.lostRounds);
        result.metrics.add("stream.fault.corrupt_decodes",
                           fc.corruptDecodes);
        result.metrics.add("stream.fault.deadline_commits",
                           fc.deadlineCommits);
        result.metrics.add("stream.fault.deadline_clamps",
                           fc.deadlineClamps);
        result.metrics.add("stream.fault.shed_rounds", fc.shedRounds);
        result.metrics.add("stream.fault.merged_rounds",
                           fc.mergedRounds);
        result.metrics.add("stream.fault.dedup_rounds", fc.dedupRounds);
        result.metrics.add("stream.fault.decoded_rounds",
                           fc.decodedRounds);
    }
    decoder.exportMetrics(result.metrics);
    return result;
}

} // namespace nisqpp
