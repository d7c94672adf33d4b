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

/**
 * One trial workspace per worker thread, warm across every shard (and
 * cell) that thread ever runs: decoders borrow all scratch from it, so
 * steady-state decoding performs no heap allocation.
 */
TrialWorkspace &
workerWorkspace()
{
    static thread_local TrialWorkspace workspace;
    return workspace;
}

/** A shard's rule: exactly @p trials rounds, no early stop. */
StopRule
fixedRule(std::size_t trials)
{
    StopRule fixed;
    fixed.minTrials = fixed.maxTrials = trials;
    fixed.targetFailures = ~std::size_t{0};
    return fixed;
}

/**
 * Attach the engine's per-shard counters to a shard's result. They
 * ride through the ordered prefix merge with it, so shards discarded
 * past the stop index drop their counters too and the aggregate stays
 * byte-identical at any thread count.
 */
void
addShardCounters(MonteCarloResult &result)
{
    result.metrics.add("engine.shards");
    result.metrics.add("engine.trials", result.trials);
    result.metrics.add("engine.failures", result.failures);
}

/** Run one shard on decoders of its own: exactly shard.trials rounds. */
MonteCarloResult
runShard(const CellSpec &spec, const Shard &shard)
{
    obs::TraceSpan span(obs::Stage::Shard);
    auto z_dec = (*spec.factory)(*spec.lattice, ErrorType::Z);
    std::unique_ptr<Decoder> x_dec;
    const NoiseModel model(spec.noise, spec.physicalRate);
    if (model.producesX())
        x_dec = (*spec.factory)(*spec.lattice, ErrorType::X);
    LifetimeSimulator sim(*spec.lattice, model, *z_dec, x_dec.get(),
                          shard.seed, &workerWorkspace());
    sim.setLifetimeMode(spec.lifetimeMode);
    sim.setBatchLanes(spec.batchLanes);
    sim.setMeasurementWindow(spec.windowRounds);
    MonteCarloResult result = sim.run(fixedRule(shard.trials));

    // The decoders are shard-private, so their exported totals are
    // exactly this shard's work.
    addShardCounters(result);
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

    /**
     * Claim the next unstarted shard into @p i; false once the claim
     * passes the end or the published stop index. Claims are
     * sequential, so a failed claim means every lower shard is already
     * running or done: the cell has nothing more to hand out.
     */
    bool claim(std::size_t &i)
    {
        i = nextShard.fetch_add(1, std::memory_order_relaxed);
        return i < shards.size() &&
               i < stopHint.load(std::memory_order_acquire);
    }

    /** Shards below the stop index not yet claimed. */
    std::size_t unclaimed() const
    {
        const std::size_t start =
            nextShard.load(std::memory_order_relaxed);
        const std::size_t limit = std::min(
            shards.size(), stopHint.load(std::memory_order_acquire));
        return limit > start ? limit - start : 0;
    }

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

/**
 * Lifetime-mode cells of one lattice (and one decoder factory and
 * noise family) whose shards share the lanes of lane-packed decoders:
 * each group task claims shards from these cells in order.
 */
struct Engine::LatticeGroup
{
    const SurfaceLattice *lattice = nullptr;
    const DecoderFactory *factory = nullptr;
    bool producesX = false;
    std::vector<CellRun *> cells; ///< in grid order
    /** The Z decoder built to read lanes(); the first task decodes on it. */
    std::unique_ptr<Decoder> zProbe;
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
        // Once a claim fails this chain can die: the remaining budget
        // is never submitted at all.
        std::size_t i = 0;
        if (!run.claim(i))
            return;
        run.onShardDone(i, runShard(run.spec, run.shards[i]));
        maybeWriteCheckpoint();
        // Resubmitting before this task returns keeps the pool's
        // in-flight count nonzero, so wait() cannot wake early. The
        // chain dies once every shard below the (published) stop
        // index has been claimed; a stop racing in after this check
        // just makes the successor claim-and-exit.
        if (run.unclaimed() > 0)
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
    const std::size_t wave =
        std::min(run.unclaimed(),
                 2 * static_cast<std::size_t>(pool_->threadCount()));
    for (std::size_t i = 0; i < wave; ++i)
        pumpCell(run);
}

std::vector<std::unique_ptr<Engine::LatticeGroup>>
Engine::scheduleRuns(std::vector<std::unique_ptr<CellRun>> &runs)
{
    std::vector<std::unique_ptr<LatticeGroup>> groups;
    for (auto &run : runs) {
        const CellSpec &spec = run->spec;
        if (!spec.lifetimeMode) {
            schedulePumps(*run);
            continue;
        }
        const bool x =
            NoiseModel(spec.noise, spec.physicalRate).producesX();
        auto it = std::find_if(groups.begin(), groups.end(),
                               [&](const auto &g) {
                                   return g->lattice == spec.lattice &&
                                          g->factory == spec.factory &&
                                          g->producesX == x;
                               });
        if (it == groups.end()) {
            groups.push_back(std::make_unique<LatticeGroup>());
            groups.back()->lattice = spec.lattice;
            groups.back()->factory = spec.factory;
            groups.back()->producesX = x;
            it = groups.end() - 1;
        }
        (*it)->cells.push_back(run.get());
    }

    // Dispatch the largest distance first: its groups run longest.
    std::stable_sort(groups.begin(), groups.end(),
                     [](const auto &a, const auto &b) {
                         return a->lattice->distance() >
                                b->lattice->distance();
                     });
    const auto threads = static_cast<std::size_t>(pool_->threadCount());
    std::size_t costlier = 0; // shards of this and every larger lattice
    for (auto &group : groups) {
        std::size_t remaining = 0;
        for (CellRun *run : group->cells)
            remaining += run->unclaimed();
        costlier += remaining;
        if (remaining == 0)
            continue;
        // A group task runs on one thread and its decoder steps all of
        // its lanes at once, each lane running about one shard. So a
        // task takes about lanes / s one-lane shard times, where s ~ 2
        // is the packed mesh's gain over one lane (1.7-4.6x at p =
        // 5-12%, 0.8-2.7x at p = 1%), and it costs less CPU than one
        // decoder per shard when it is at least half full. One decoder
        // per shard keeps the pool busy for at least costlier / threads
        // of this lattice's shard times, since a larger lattice's shard
        // costs more. So a lattice packs when it fills half a group and
        // 2 * costlier >= threads * lanes: its tasks then end within
        // the per-shard run time. Otherwise (and for one-lane decoders)
        // each shard gets decoders of its own, run by the cells' claim
        // chains.
        group->zProbe = (*group->factory)(*group->lattice, ErrorType::Z);
        const auto lanes =
            static_cast<std::size_t>(group->zProbe->lanes());
        if (lanes <= 1 || 2 * remaining < lanes ||
            2 * costlier < threads * lanes) {
            group->zProbe.reset();
            for (CellRun *run : group->cells)
                schedulePumps(*run);
            continue;
        }
        // ceil(remaining / lanes) tasks, evenly filled, so each is at
        // least half full and every lane it opens with gets a shard.
        const std::size_t tasks = (remaining + lanes - 1) / lanes;
        const std::size_t width = (remaining + tasks - 1) / tasks;
        for (std::size_t t = 0; t < tasks; ++t)
            pool_->submit([this, g = group.get(), width, t] {
                runLatticeGroup(*g, static_cast<int>(width), t == 0);
            });
    }
    return groups;
}

void
Engine::runLatticeGroup(LatticeGroup &group, int lanes, bool first)
{
    // One span for the whole task. A packed Z decode has none of its
    // own: each decoder step advances many shards' rounds.
    obs::TraceSpan span(obs::Stage::Shard);
    auto z_dec = first ? std::move(group.zProbe)
                       : (*group.factory)(*group.lattice, ErrorType::Z);
    std::unique_ptr<Decoder> x_dec;
    if (group.producesX)
        x_dec = (*group.factory)(*group.lattice, ErrorType::X);

    // Claims walk the cells in grid order, each cell's shards in index
    // order, exactly as pumpCell claims them: a failed claim means the
    // cell is exhausted (or stopped) for good, so the cursor only
    // moves forward.
    std::size_t cell = 0;
    const LifetimeSource claim = [&]() -> std::optional<LifetimeJob> {
        if (checkpointEnabled_ && ckpt::interruptRequested())
            return std::nullopt;
        for (; cell < group.cells.size(); ++cell) {
            CellRun &run = *group.cells[cell];
            std::size_t i = 0;
            if (!run.claim(i))
                continue;
            return LifetimeJob{
                NoiseModel(run.spec.noise, run.spec.physicalRate),
                run.shards[i].seed, fixedRule(run.shards[i].trials),
                [this, &run, i](MonteCarloResult &&result,
                                const MeshWorkCounters &work) {
                    // The decoders are shared, so the shard's mesh
                    // counters come from its own decodes alone.
                    addShardCounters(result);
                    work.exportTo(result.metrics);
                    run.onShardDone(i, std::move(result));
                    maybeWriteCheckpoint();
                }};
        }
        return std::nullopt;
    };
    runLifetimes(*group.lattice, *z_dec, x_dec.get(), lanes,
                 workerWorkspace(), claim);
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
        const auto groups = scheduleRuns(runs);
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
    const auto groups = scheduleRuns(runs);
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
