#include "engine/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <sstream>

#include "common/logging.hh"
#include "decoders/workspace.hh"
#include "engine/thread_pool.hh"
#include "obs/trace.hh"
#include "surface/lattice.hh"

namespace nisqpp {

std::vector<double>
SweepConfig::logSpaced(double lo, double hi, int count)
{
    require(lo > 0 && hi > lo && count >= 2,
            "logSpaced: bad range");
    std::vector<double> out;
    out.reserve(count);
    const double step = (std::log(hi) - std::log(lo)) / (count - 1);
    for (int i = 0; i < count; ++i)
        out.push_back(std::exp(std::log(lo) + step * i));
    return out;
}

namespace {

/** Fixed trial budget and seed of one shard of a cell. */
struct Shard
{
    std::size_t trials;
    std::uint64_t seed;
};

/**
 * Split a cell's maxTrials budget into shardTrials-sized shards, each
 * with its own child stream off the cell seed. Depends only on (rule,
 * shardTrials, seed) — never on the thread count.
 */
std::vector<Shard>
planShards(const StopRule &rule, std::size_t shardTrials,
           std::uint64_t cellSeed)
{
    require(shardTrials > 0, "Engine: shardTrials must be positive");
    std::vector<Shard> shards;
    Rng cellRng(cellSeed);
    for (std::size_t done = 0; done < rule.maxTrials;
         done += shardTrials) {
        Shard shard;
        shard.trials = std::min(shardTrials, rule.maxTrials - done);
        Rng child = cellRng.split();
        shard.seed = child.next();
        shards.push_back(shard);
    }
    return shards;
}

/** Run one shard to completion: exactly shard.trials rounds. */
MonteCarloResult
runShard(const CellSpec &spec, const Shard &shard)
{
    // One trial workspace per worker thread, warm across every shard
    // (and cell) that thread ever runs: decoders borrow all scratch
    // from it, so steady-state decoding performs no heap allocation.
    static thread_local TrialWorkspace workspace;

    obs::TraceSpan span(obs::Stage::Shard);
    auto z_dec = (*spec.factory)(*spec.lattice, ErrorType::Z);
    std::unique_ptr<Decoder> x_dec;
    const std::unique_ptr<NoiseModel> model =
        makeNoiseModel(spec.noise, spec.physicalRate);
    if (model->producesX())
        x_dec = (*spec.factory)(*spec.lattice, ErrorType::X);
    LifetimeSimulator sim(*spec.lattice, *model, *z_dec, x_dec.get(),
                          shard.seed, &workspace);
    sim.setLifetimeMode(spec.lifetimeMode);
    sim.setBatchLanes(spec.batchLanes);
    sim.setMeasurementWindow(spec.windowRounds);
    StopRule fixed;
    fixed.minTrials = fixed.maxTrials = shard.trials;
    fixed.targetFailures = ~std::size_t{0};
    MonteCarloResult result = sim.run(fixed);

    // Attach this shard's deterministic work counters to the result:
    // they ride through the ordered prefix merge with it, so shards
    // discarded past the stop index drop their counters too and the
    // aggregate stays byte-identical at any thread count. The decoders
    // are shard-private, so their exported totals are exactly this
    // shard's work.
    result.metrics.add("engine.shards");
    result.metrics.add("engine.trials", result.trials);
    result.metrics.add("engine.failures", result.failures);
    z_dec->exportMetrics(result.metrics);
    if (x_dec)
        x_dec->exportMetrics(result.metrics);
    return result;
}

} // namespace

/**
 * Ordered-merge state of one in-flight cell. Shards complete in any
 * order; the holder of the mutex advances the merge frontier over the
 * contiguous prefix of finished shards, checking the stop rule after
 * each merge. Once the rule is satisfied at shard k the stop index is
 * published so not-yet-claimed shards past k are never run — they can
 * never affect the result, which is always the ordered prefix [0, k].
 *
 * Shards are claimed in index order through nextShard by a bounded set
 * of pump chains (the wave), so an early-stopped cell never pays
 * submit/queue churn for the rest of its trial budget.
 */
struct Engine::CellRun
{
    CellSpec spec;
    std::vector<Shard> shards;
    std::vector<std::unique_ptr<MonteCarloResult>> pending;
    MonteCarloResult acc;
    std::size_t frontier = 0; ///< first shard not yet merged
    std::size_t stop = 0;     ///< shards >= stop are never merged
    std::atomic<std::size_t> stopHint{0};
    std::atomic<std::size_t> nextShard{0}; ///< next index to claim
    std::mutex mutex;

    void onShardDone(std::size_t index, MonteCarloResult result)
    {
        std::lock_guard<std::mutex> lock(mutex);
        pending[index] =
            std::make_unique<MonteCarloResult>(std::move(result));
        while (frontier < stop && pending[frontier]) {
            acc.merge(*pending[frontier]);
            pending[frontier].reset();
            ++frontier;
            if (acc.trials >= spec.rule.minTrials &&
                acc.failures >= spec.rule.targetFailures) {
                stop = frontier;
                stopHint.store(frontier, std::memory_order_release);
                break;
            }
        }
    }
};

Engine::Engine(EngineOptions options)
    : options_(options),
      pool_(std::make_unique<ThreadPool>(options.threads))
{
    require(options_.shardTrials > 0,
            "Engine: shardTrials must be positive");
}

Engine::~Engine() = default;

int
Engine::threads() const
{
    return pool_->threadCount();
}

void
Engine::pumpCell(CellRun &run)
{
    pool_->submit([this, &run] {
        // Cooperative interruption: once a checkpointed run sees the
        // flag, chains stop claiming and the pool drains naturally;
        // executeInvocation then persists the drained state. Gated on
        // the policy so stray flags never affect plain runs.
        if (checkpointEnabled_ && ckpt::interruptRequested())
            return;
        // Claim the next unstarted shard. Claims are sequential, so
        // once the claim passes the published stop index every lower
        // shard is already running or done and this chain can die —
        // the remaining budget is never submitted at all.
        const std::size_t i =
            run.nextShard.fetch_add(1, std::memory_order_relaxed);
        if (i >= run.shards.size() ||
            i >= run.stopHint.load(std::memory_order_acquire))
            return;
        run.onShardDone(i, runShard(run.spec, run.shards[i]));
        maybeWriteCheckpoint();
        // Resubmitting before this task returns keeps the pool's
        // in-flight count nonzero, so wait() cannot wake early. The
        // chain dies once every shard below the (published) stop
        // index has been claimed; a stop racing in after this check
        // just makes the successor claim-and-exit.
        const std::size_t limit =
            std::min(run.shards.size(),
                     run.stopHint.load(std::memory_order_acquire));
        if (run.nextShard.load(std::memory_order_relaxed) < limit)
            pumpCell(run);
    });
}

void
Engine::prepareCell(const CellSpec &spec, CellRun &run)
{
    require(spec.lattice && spec.factory,
            "Engine: cell needs a lattice and a decoder factory");
    require(spec.batchLanes <= kMaxBatchLanes,
            "Engine: batchLanes exceeds kMaxBatchLanes");
    run.spec = spec;
    if (run.spec.batchLanes == 0)
        run.spec.batchLanes = options_.batchLanes;
    run.shards = planShards(spec.rule, options_.shardTrials, spec.seed);
    run.pending.resize(run.shards.size());
    run.stop = run.shards.size();
    run.stopHint.store(run.shards.size(), std::memory_order_release);
    run.nextShard.store(0, std::memory_order_release);
}

void
Engine::schedulePumps(CellRun &run)
{
    // Schedule the cell as a wave of claim chains instead of its whole
    // shard budget: enough chains to keep every worker busy (2x the
    // pool, so a finishing shard always finds a queued successor), but
    // never more than the cell still needs (a restored cell starts at
    // its frontier; a restored-stopped cell schedules nothing).
    const std::size_t start =
        run.nextShard.load(std::memory_order_relaxed);
    const std::size_t limit =
        std::min(run.shards.size(),
                 run.stopHint.load(std::memory_order_acquire));
    const std::size_t remaining = limit > start ? limit - start : 0;
    const std::size_t wave =
        std::min(remaining,
                 2 * static_cast<std::size_t>(pool_->threadCount()));
    for (std::size_t i = 0; i < wave; ++i)
        pumpCell(run);
}

MonteCarloResult
Engine::collectCell(CellRun &run)
{
    MonteCarloResult result = std::move(run.acc);
    result.metrics.add("engine.cells");
    result.finalize();
    // Fold in collect order, which is fixed (runSweep collects in grid
    // order, runCell immediately) — so engine totals inherit the
    // per-cell determinism.
    totals_.merge(result.metrics);
    return result;
}

void
Engine::runtimeMetricsInto(obs::MetricSet &out) const
{
    out.maxGauge("sched.pool.threads",
                 static_cast<std::uint64_t>(pool_->threadCount()));
    out.add("sched.pool.tasks", pool_->taskCount());
    out.add("sched.pool.steals", pool_->stealCount());
}

void
Engine::setCheckpointPolicy(const ckpt::CheckpointPolicy &policy)
{
    require(invocationIndex_ == 0,
            "Engine: set the checkpoint policy before running");
    require(!policy.enabled() || policy.intervalShards >= 1,
            "Engine: checkpoint interval must be >= 1 shard");
    ckpt_ = policy;
    checkpointEnabled_ = policy.enabled();
}

void
Engine::resumeFrom(ckpt::CheckpointLedger ledger)
{
    require(invocationIndex_ == 0,
            "Engine: resume before running");
    for (std::size_t i = 0; i + 1 < ledger.invocations.size(); ++i)
        if (!ledger.invocations[i].complete)
            throw ckpt::CheckpointError(
                "checkpoint malformed: invocation " + std::to_string(i) +
                " is incomplete but not last");
    restored_ = std::move(ledger);
    hasRestored_ = true;
}

namespace {

/**
 * Canonical one-line description of a cell: everything the result
 * depends on (and nothing it doesn't — thread count and batch lanes
 * are result-invariant by the engine's determinism contract, so a run
 * may legitimately resume with different values). Doubles are printed
 * as IEEE-754 bit patterns so the fingerprint is exact.
 */
std::string
describeCell(const CellSpec &spec, std::size_t shardCount)
{
    std::ostringstream os;
    os << "d=" << spec.lattice->distance()
       << " p=" << ckpt::hexBits(spec.physicalRate)
       << " noise=" << noiseKindName(spec.noise.kind)
       << " eta=" << ckpt::hexBits(spec.noise.eta)
       << " q=" << ckpt::hexBits(spec.noise.q)
       << " window=" << spec.windowRounds
       << " circuits=0" // fixed token: keeps older ledgers resumable
       << " lifetime=" << (spec.lifetimeMode ? 1 : 0)
       << " rule=" << spec.rule.minTrials << '/' << spec.rule.maxTrials
       << '/' << spec.rule.targetFailures << " seed=" << spec.seed
       << " shards=" << shardCount;
    return os.str();
}

std::int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

std::string
Engine::describeInvocation(
    const std::vector<std::unique_ptr<CellRun>> &runs) const
{
    std::ostringstream os;
    os << "shardTrials=" << options_.shardTrials
       << " cells=" << runs.size();
    for (const auto &run : runs)
        os << " | " << describeCell(run->spec, run->shards.size());
    return os.str();
}

ckpt::CellLedger
Engine::snapshotCell(CellRun &run)
{
    std::lock_guard<std::mutex> lock(run.mutex);
    ckpt::CellLedger cell;
    cell.frontier = run.frontier;
    // stop < shards.size() is only ever published with frontier ==
    // stop (the rule fires at merge time), so frontier >= stop is
    // exactly "nothing left to schedule".
    cell.stopped = run.frontier >= run.stop;
    cell.partial = run.acc;
    return cell;
}

ckpt::InvocationLedger
Engine::snapshotActive(bool complete)
{
    ckpt::InvocationLedger inv;
    inv.configText = activeConfig_;
    inv.complete = complete;
    inv.cells.reserve(activeRuns_.size());
    for (CellRun *run : activeRuns_)
        inv.cells.push_back(snapshotCell(*run));
    return inv;
}

void
Engine::writeLedgerLocked(const ckpt::InvocationLedger &active)
{
    ckpt::CheckpointLedger ledger;
    ledger.scope = ckpt_.scope;
    ledger.invocations = doneInvocations_;
    ledger.invocations.push_back(active);
    ckpt::writeCheckpoint(ckpt_.path, ledger);
    ckptWrites_.fetch_add(1, std::memory_order_relaxed);
    lastWriteNs_.store(steadyNowNs(), std::memory_order_relaxed);
}

void
Engine::maybeWriteCheckpoint()
{
    if (!checkpointEnabled_)
        return;
    const std::size_t n =
        ckptSinceWrite_.fetch_add(1, std::memory_order_relaxed) + 1;
    bool due = n >= ckpt_.intervalShards;
    if (!due && ckpt_.intervalSeconds > 0.0) {
        const std::int64_t last =
            lastWriteNs_.load(std::memory_order_relaxed);
        due = last != 0 &&
              static_cast<double>(steadyNowNs() - last) * 1e-9 >=
                  ckpt_.intervalSeconds;
    }
    if (!due)
        return;
    // One writer at a time; a contended worker just keeps computing —
    // the writer's snapshot already covers its shard.
    std::unique_lock<std::mutex> lock(ckptWriteMutex_,
                                      std::try_to_lock);
    if (!lock.owns_lock())
        return;
    ckptSinceWrite_.store(0, std::memory_order_relaxed);
    try {
        writeLedgerLocked(snapshotActive(false));
    } catch (const ckpt::CheckpointError &err) {
        // A failed periodic write must not kill hours of simulation;
        // the end-of-invocation write rethrows if the disk is truly
        // gone.
        warn(std::string("periodic checkpoint write failed: ") +
             err.what());
    }
}

void
Engine::executeInvocation(std::vector<std::unique_ptr<CellRun>> &runs)
{
    const std::size_t inv = invocationIndex_++;
    const bool tracked = checkpointEnabled_ || hasRestored_;
    if (!tracked) {
        for (auto &run : runs)
            schedulePumps(*run);
        pool_->wait();
        return;
    }

    activeConfig_ = describeInvocation(runs);
    if (hasRestored_ && inv < restored_.invocations.size()) {
        const ckpt::InvocationLedger &rinv = restored_.invocations[inv];
        if (rinv.configText != activeConfig_)
            throw ckpt::CheckpointError(
                "checkpoint config mismatch in invocation " +
                std::to_string(inv) +
                " — the checkpoint was written by a different "
                "configuration (grid, rates, seed, or shardTrials)\n"
                "  checkpoint: " + rinv.configText + "\n"
                "  this run:   " + activeConfig_);
        if (rinv.cells.size() != runs.size())
            throw ckpt::CheckpointError(
                "checkpoint cell count mismatch in invocation " +
                std::to_string(inv) + ": checkpoint has " +
                std::to_string(rinv.cells.size()) +
                ", this run plans " + std::to_string(runs.size()));
        for (std::size_t j = 0; j < runs.size(); ++j)
            applyRestoredCell(*runs[j], rinv.cells[j], inv, j);
        resumed_ = true;
        if (rinv.complete) {
            // Nothing to recompute and nothing new to persist.
            doneInvocations_.push_back(rinv);
            return;
        }
    }

    activeRuns_.clear();
    activeRuns_.reserve(runs.size());
    for (auto &run : runs)
        activeRuns_.push_back(run.get());
    for (auto &run : runs)
        schedulePumps(*run);
    pool_->wait();

    const bool interrupted =
        checkpointEnabled_ && ckpt::interruptRequested();
    if (checkpointEnabled_) {
        std::lock_guard<std::mutex> lock(ckptWriteMutex_);
        ckpt::InvocationLedger closing = snapshotActive(!interrupted);
        writeLedgerLocked(closing);
        ckptSinceWrite_.store(0, std::memory_order_relaxed);
        activeRuns_.clear();
        doneInvocations_.push_back(std::move(closing));
    } else {
        activeRuns_.clear();
    }
    if (interrupted)
        throw ckpt::InterruptedError(ckpt_.path);
}

void
Engine::applyRestoredCell(CellRun &run, const ckpt::CellLedger &cell,
                          std::size_t invocation, std::size_t index)
{
    if (cell.frontier > run.shards.size())
        throw ckpt::CheckpointError(
            "checkpoint frontier " + std::to_string(cell.frontier) +
            " exceeds the " + std::to_string(run.shards.size()) +
            "-shard plan of cell " + std::to_string(index) +
            " in invocation " + std::to_string(invocation));
    run.acc = cell.partial;
    run.frontier = cell.frontier;
    run.stop = cell.stopped ? cell.frontier : run.shards.size();
    run.stopHint.store(run.stop, std::memory_order_release);
    run.nextShard.store(cell.frontier, std::memory_order_release);
    restoredCells_ += 1;
    restoredShards_ += cell.frontier;
}

void
Engine::checkpointMetricsInto(obs::MetricSet &out) const
{
    if (!checkpointEnabled_ && !resumed_)
        return;
    out.add("ckpt.writes",
            ckptWrites_.load(std::memory_order_relaxed));
    out.add("ckpt.restored_cells", restoredCells_);
    out.add("ckpt.restored_shards", restoredShards_);
    out.maxGauge("ckpt.resumed", resumed_ ? 1 : 0);
    const std::int64_t last =
        lastWriteNs_.load(std::memory_order_relaxed);
    if (last != 0)
        out.maxGauge("ckpt.last_write_age_ms",
                     static_cast<std::uint64_t>(
                         (steadyNowNs() - last) / 1000000));
}

MonteCarloResult
Engine::runCell(const CellSpec &spec)
{
    std::vector<std::unique_ptr<CellRun>> runs;
    runs.push_back(std::make_unique<CellRun>());
    prepareCell(spec, *runs.front());
    executeInvocation(runs);
    return collectCell(*runs.front());
}

void
Engine::runJobs(std::vector<std::function<void()>> jobs)
{
    for (auto &job : jobs) {
        require(static_cast<bool>(job), "runJobs: empty job");
        pool_->submit(std::move(job));
    }
    pool_->wait();
}

SweepResult
Engine::runSweep(const SweepConfig &config, const DecoderFactory &factory)
{
    require(!config.physicalRates.empty(),
            "runSweep: no physical rates given");
    // Lifetime rounds decode the previous round's residual, so they
    // always run one lane at a time; say so rather than ignore --batch.
    static std::atomic<bool> warnedLifetimeBatch{false};
    if (config.lifetimeMode && options_.batchLanes > 1 &&
        !warnedLifetimeBatch.exchange(true))
        warn("batch lanes = " + std::to_string(options_.batchLanes) +
             " ignored in lifetime mode (rounds depend on the previous "
             "round's correction); running one lane");

    // Lattices are shared read-only across every shard of a distance.
    std::vector<std::unique_ptr<SurfaceLattice>> lattices;
    lattices.reserve(config.distances.size());
    for (int d : config.distances)
        lattices.push_back(std::make_unique<SurfaceLattice>(d));

    // Cell seeds are drawn in fixed grid order from the master stream,
    // mirroring the legacy serial sweep's per-cell split() sequence.
    Rng master(config.seed);
    const std::size_t cols = config.physicalRates.size();
    std::vector<std::unique_ptr<CellRun>> runs;
    runs.reserve(config.distances.size() * cols);
    for (std::size_t di = 0; di < config.distances.size(); ++di) {
        for (double p : config.physicalRates) {
            CellSpec spec;
            spec.lattice = lattices[di].get();
            spec.physicalRate = p;
            spec.noise = config.noise;
            spec.windowRounds = config.windowRounds;
            spec.lifetimeMode = config.lifetimeMode;
            spec.rule = config.stopRule;
            Rng child = master.split();
            spec.seed = child.next();
            spec.factory = &factory;
            runs.push_back(std::make_unique<CellRun>());
            prepareCell(spec, *runs.back());
        }
    }
    executeInvocation(runs);

    SweepResult result;
    for (std::size_t di = 0; di < config.distances.size(); ++di) {
        ErrorRateCurve curve;
        curve.distance = config.distances[di];
        std::vector<MonteCarloResult> row;
        for (std::size_t pi = 0; pi < cols; ++pi) {
            MonteCarloResult mc = collectCell(*runs[di * cols + pi]);
            curve.p.push_back(config.physicalRates[pi]);
            curve.pl.push_back(mc.logicalErrorRate);
            row.push_back(std::move(mc));
        }
        result.curves.push_back(std::move(curve));
        result.cells.push_back(std::move(row));
    }
    return result;
}

} // namespace nisqpp
