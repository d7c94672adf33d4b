#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <functional>
#include <optional>
#include <sstream>
#include <thread>

#include "sim/experiment.hh"
#include "spans.hh"
#include "stream/stream_sim.hh"
#include "timed_decoder.hh"

namespace perfbench {

using namespace nisqpp;

std::uint64_t
fnvMix(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xffu;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t
fnvMix(std::uint64_t hash, const std::string &text)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return fnvMix(hash, text.size());
}

namespace {

/** Fingerprint of the deterministic (non-masked) scalars of @p metrics. */
std::uint64_t
metricsFingerprint(std::uint64_t hash, const obs::MetricSet &metrics)
{
    metrics.forEachScalar(
        [&hash](const std::string &name, bool, std::uint64_t value) {
            if (obs::maskedName(name))
                return;
            hash = fnvMix(fnvMix(hash, name), value);
        });
    return hash;
}

} // namespace

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

DecoderFactory
familyFactory(const std::string &family)
{
    if (family == "tiered")
        return tieredDecoderFactory(MeshConfig::finalDesign(), "union_find",
                                    0.5);
    return decoderFamilies()[decoderFamilyIndex(family)].factory;
}

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

int
engineThreads(int wanted)
{
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::max(1, std::min(wanted, hw > 0 ? hw : 1));
}

std::string
cellLabel(const std::string &prefix, int d, double p)
{
    std::ostringstream os;
    os.precision(4);
    os << prefix << "d" << d << "/p" << std::fixed << p;
    return os.str();
}

/** Pool task/steal counters of @p engine so far. */
std::pair<std::uint64_t, std::uint64_t>
poolCounters(const Engine &engine)
{
    obs::MetricSet m;
    engine.runtimeMetricsInto(m);
    return {m.value("sched.pool.tasks"), m.value("sched.pool.steals")};
}

/**
 * Check PL of a cell against the band [lo, hi] and the trial budget;
 * returns the violation text, empty when both hold.
 */
std::string
checkCell(const MonteCarloResult &r, std::size_t budget, double lo, double hi)
{
    std::ostringstream os;
    if (r.trials != budget)
        os << "trials " << r.trials << " != budget " << budget << "; ";
    if (!(r.logicalErrorRate >= lo && r.logicalErrorRate <= hi))
        os << "PL " << r.logicalErrorRate << " outside [" << lo << ", "
           << hi << "]; ";
    return os.str();
}

CellOutcome
sweepCell(const std::string &label, const MonteCarloResult &r,
          std::size_t budget, double lo, double hi)
{
    CellOutcome c;
    c.label = label;
    std::uint64_t h = fnvMix(fnvMix(kFnvBasis, r.trials), r.failures);
    c.fingerprint = metricsFingerprint(h, r.metrics);
    c.violation = checkCell(r, budget, lo, hi);
    return c;
}

/**
 * The moment a repetition's first decoder is ready, i.e. its first
 * trial can start; set once by whichever worker gets there first.
 */
class FirstTrialClock
{
  public:
    void
    mark()
    {
        std::uint64_t unset = 0;
        ns_.compare_exchange_strong(unset, nowNs());
    }

    void reset() { ns_.store(0); }
    std::uint64_t ns() const { return ns_.load(); }

  private:
    std::atomic<std::uint64_t> ns_{0};
};

/** @p factory, marking @p clock after every decoder it builds. */
DecoderFactory
clockedFactory(DecoderFactory factory, FirstTrialClock &clock)
{
    return [factory = std::move(factory), &clock](const SurfaceLattice &lattice,
                                                  ErrorType type) {
        auto decoder = factory(lattice, type);
        clock.mark();
        return decoder;
    };
}

/** Lattices for a distance list, built in setup(). */
struct Lattices
{
    std::vector<std::unique_ptr<SurfaceLattice>> byIndex;

    void
    build(const std::vector<int> &distances)
    {
        byIndex.clear();
        for (int d : distances)
            byIndex.push_back(std::make_unique<SurfaceLattice>(d));
    }

    const SurfaceLattice &
    at(int d) const
    {
        for (const auto &l : byIndex)
            if (l->distance() == d)
                return *l;
        throw std::runtime_error("no lattice for d=" + std::to_string(d));
    }
};

/** Shared set-up: the engine and its pool. */
class EngineWorkload : public Workload
{
  public:
    EngineWorkload(std::vector<int> distances, std::vector<std::string> families,
                   int threads, EngineOptions options)
        : distances_(std::move(distances)), families_(std::move(families)),
          threads_(engineThreads(threads)), options_(options)
    {
        options_.threads = threads_;
    }

    void teardown() override { engine_.reset(); }

    void
    setup() override
    {
        engine_ = std::make_unique<Engine>(options_);
    }

    int threads() const override { return threads_; }

  protected:
    /** Run @p body as one engine wave, recording its span on @p out. */
    template <typename F>
    void
    wave(RepOutcome &out, F &&body)
    {
        const std::uint64_t start = nowNs();
        body();
        out.waves.emplace_back(start, nowNs());
    }

    /** Start a repetition: clear the clock; pool counters so far. */
    std::pair<std::uint64_t, std::uint64_t>
    beginRep()
    {
        firstTrial_.reset();
        return poolCounters(*engine_);
    }

    void
    finishRep(RepOutcome &out, std::pair<std::uint64_t, std::uint64_t> before)
    {
        const auto after = poolCounters(*engine_);
        out.tasks = after.first - before.first;
        out.steals = after.second - before.second;
        out.firstTrialNs = firstTrial_.ns();
    }

    /** @p factory as a repetition uses it: clocked, and timed if traced. */
    DecoderFactory
    repFactory(DecoderFactory factory, bool traced, const std::string &prefix)
    {
        if (traced)
            factory = timedFactory(std::move(factory), prefix);
        return clockedFactory(std::move(factory), firstTrial_);
    }

    std::vector<int> distances_;
    std::vector<std::string> families_;
    int threads_;
    EngineOptions options_;
    std::unique_ptr<Engine> engine_;
    FirstTrialClock firstTrial_;
};

// ---------------------------------------------------------------------
// lifetime_mesh: Fig. 10 final-design sweep, SFQ mesh, lifetime mode.

class LifetimeMesh final : public EngineWorkload
{
  public:
    LifetimeMesh()
        : EngineWorkload({3, 5, 7, 9}, {"sfq_mesh"}, 4, meshOptions())
    {}

    std::string name() const override { return "lifetime_mesh"; }

    RepOutcome
    run(std::uint64_t seed, bool traced) override
    {
        RepOutcome out;
        const auto before = beginRep();
        SweepConfig config;
        config.distances = distances_;
        config.physicalRates = kRates;
        config.lifetimeMode = true;
        config.stopRule = {kTrials, kTrials, 1u << 30};
        config.seed = splitmix(seed ^ kSalt);
        const DecoderFactory factory = repFactory(
            meshDecoderFactory(MeshConfig::finalDesign()), traced, "core.mesh");
        SweepResult result;
        wave(out, [&] { result = engine_->runSweep(config, factory); });
        for (std::size_t di = 0; di < config.distances.size(); ++di)
            for (std::size_t pi = 0; pi < kRates.size(); ++pi) {
                const MonteCarloResult &r = result.cells[di][pi];
                const double p = kRates[pi];
                // Lifetime-protocol mesh PL: below p at low p for every
                // d, and a visible logical error rate at the top end.
                const double hi = p < 0.03 ? p : 0.5;
                const double lo = p > 0.1 ? 0.1 : 0.0;
                out.cells.push_back(sweepCell(
                    cellLabel("", config.distances[di], p), r, kTrials, lo, hi));
                out.counters.merge(r.metrics);
                out.units += r.trials;
            }
        finishRep(out, before);
        return out;
    }

    std::vector<ReplaySpec>
    replaySpecs() const override
    {
        std::vector<ReplaySpec> specs;
        for (int d : distances_)
            specs.push_back({"sfq_mesh", d, 0.05, 0});
        return specs;
    }

  private:
    static EngineOptions
    meshOptions()
    {
        EngineOptions o;
        o.shardTrials = 512; // 8 shards per cell
        return o;
    }

    static constexpr std::uint64_t kSalt = 0x11feULL;
    static constexpr std::size_t kTrials = 4096;
    // The paper's Fig. 10 p grid: 10 log-spaced points over 1%..12%.
    const std::vector<double> kRates{0.01,   0.0132, 0.0174, 0.0229, 0.0302,
                                     0.0397, 0.0524, 0.0690, 0.0910, 0.12};
};

// ---------------------------------------------------------------------
// uf_batch: per-round union-find near threshold, 512-lane batches, 1 thread.

class UfBatch final : public EngineWorkload
{
  public:
    UfBatch()
        : EngineWorkload({3, 5, 7, 9}, {"union_find"}, 1, batchOptions())
    {}

    std::string name() const override { return "uf_batch"; }

    RepOutcome
    run(std::uint64_t seed, bool traced) override
    {
        RepOutcome out;
        const auto before = beginRep();
        SweepConfig config;
        config.distances = distances_;
        config.physicalRates = kRates;
        config.stopRule = {kTrials, kTrials, 1u << 30};
        config.seed = splitmix(seed ^ kSalt);
        const DecoderFactory factory = repFactory(
            unionFindDecoderFactory(), traced, "decoders.union_find_batch");
        SweepResult result;
        wave(out, [&] { result = engine_->runSweep(config, factory); });
        for (std::size_t di = 0; di < config.distances.size(); ++di)
            for (std::size_t pi = 0; pi < kRates.size(); ++pi) {
                const MonteCarloResult &r = result.cells[di][pi];
                // Code-capacity UF below its ~10% threshold: PL under
                // 1.5 p, and above p / 50 (failures are still sampled).
                const double p = kRates[pi];
                out.cells.push_back(
                    sweepCell(cellLabel("", config.distances[di], p), r,
                              kTrials, p / 50.0, 1.5 * p));
                out.counters.merge(r.metrics);
                out.units += r.trials;
            }
        finishRep(out, before);
        return out;
    }

    std::vector<ReplaySpec>
    replaySpecs() const override
    {
        std::vector<ReplaySpec> specs;
        for (int d : distances_)
            specs.push_back({"union_find", d, 0.05, 0});
        return specs;
    }

  private:
    static EngineOptions
    batchOptions()
    {
        EngineOptions o;
        o.shardTrials = 8192;
        o.batchLanes = 512;
        return o;
    }

    static constexpr std::uint64_t kSalt = 0x0fbaULL;
    static constexpr std::size_t kTrials = 32768;
    const std::vector<double> kRates{0.045, 0.05, 0.055};
};

// ---------------------------------------------------------------------
// windowed_mwpm: fig10_measurement-shaped spacetime windows, q = p.

class WindowedMwpm final : public EngineWorkload
{
  public:
    WindowedMwpm()
        : EngineWorkload({3, 5, 9}, {"mwpm", "union_find"}, 4, EngineOptions{})
    {}

    std::string name() const override { return "windowed_mwpm"; }

    RepOutcome
    run(std::uint64_t seed, bool traced) override
    {
        RepOutcome out;
        const auto before = beginRep();
        for (const std::string &family : families_) {
            const DecoderFactory factory =
                repFactory(familyFactory(family), traced, "decoders." + family);
            for (double p : kRates) {
                // Window length scales with distance, so each distance
                // is its own single-cell sweep (as fig10_measurement).
                for (int d : distances_) {
                    SweepConfig config;
                    config.distances = {d};
                    config.physicalRates = {p};
                    config.noise = NoiseSpec::dephasing().withQ(p);
                    config.windowRounds = d;
                    config.stopRule = {kTrials, kTrials, 1u << 30};
                    config.seed = splitmix(seed ^ kSalt);
                    SweepResult result;
                    wave(out,
                         [&] { result = engine_->runSweep(config, factory); });
                    const MonteCarloResult &r = result.cells[0][0];
                    // Phenomenological noise below the ~3% crossing:
                    // PL stays under 3 p + 1% for every d.
                    out.cells.push_back(sweepCell(cellLabel(family + "/", d, p),
                                                  r, kTrials, 0.0,
                                                  3.0 * p + 0.01));
                    out.counters.merge(r.metrics);
                    out.units += r.trials;
                }
            }
        }
        finishRep(out, before);
        return out;
    }

    std::vector<ReplaySpec>
    replaySpecs() const override
    {
        std::vector<ReplaySpec> specs;
        for (const std::string &family : families_)
            for (int d : distances_)
                specs.push_back({family, d, 0.01, d});
        return specs;
    }

  private:
    static constexpr std::uint64_t kSalt = 0x3ea5ULL;
    static constexpr std::size_t kTrials = 800; // two shards per cell
    const std::vector<double> kRates{0.003, 0.006, 0.01};
};

// ---------------------------------------------------------------------
// stream_faults: runStream cells as runJobs jobs, with fault cells.

struct StreamCell
{
    std::string policy;
    std::string family; ///< "sfq_mesh", "union_find" or "tiered"
    int distance = 5;
    StreamConfig config;
};

class StreamFaults final : public EngineWorkload
{
  public:
    StreamFaults()
        : EngineWorkload({5, 9}, {"sfq_mesh", "union_find", "tiered"}, 4,
                         EngineOptions{})
    {}

    std::string name() const override { return "stream_faults"; }

    void
    setup() override
    {
        EngineWorkload::setup();
        lattices_.build(distances_);
    }

    void
    teardown() override
    {
        EngineWorkload::teardown();
        lattices_.byIndex.clear();
    }

    RepOutcome
    run(std::uint64_t seed, bool traced) override
    {
        RepOutcome out;
        const auto before = beginRep();
        const std::vector<StreamCell> cells = buildCells(splitmix(seed ^ kSalt));
        std::vector<StreamingResult> results(cells.size());
        std::vector<std::function<void()>> jobs;
        const std::uint16_t jobLabel = internLabel("stream.job");
        for (std::size_t i = 0; i < cells.size(); ++i)
            jobs.push_back([&, i] {
                const StreamCell &cell = cells[i];
                const DecoderFactory factory = repFactory(
                    familyFactory(cell.family), traced, prefixOf(cell.family));
                auto decoder = factory(*cell.config.lattice, ErrorType::Z);
                std::optional<Span> span;
                if (traced)
                    span.emplace(jobLabel,
                                 static_cast<std::uint32_t>(cell.config.rounds));
                results[i] = runStream(cell.config, *decoder);
            });
        wave(out, [&] { engine_->runJobs(std::move(jobs)); });

        for (std::size_t i = 0; i < cells.size(); ++i) {
            const StreamCell &cell = cells[i];
            const StreamingResult &r = results[i];
            CellOutcome c;
            c.label = cell.policy + "/" + cell.family + "/d" +
                      std::to_string(cell.distance);
            std::uint64_t h = fnvMix(fnvMix(kFnvBasis, r.rounds), r.failures);
            c.fingerprint = metricsFingerprint(h, r.metrics);
            c.violation = checkStream(cell, r);
            out.cells.push_back(c);
            out.counters.merge(r.metrics);
            out.units += r.rounds;
            out.maxBacklogRounds = std::max<std::uint64_t>(
                out.maxBacklogRounds, r.maxBacklogRounds);
            out.retransmits += r.faults.retransmits;
            out.shedRounds += r.faults.shedRounds;
            out.lostRounds += r.faults.lostRounds;
            out.simP99ServiceNs =
                std::max(out.simP99ServiceNs, r.servicePercentiles.p99);
        }
        finishRep(out, before);
        return out;
    }

    std::vector<ReplaySpec>
    replaySpecs() const override
    {
        std::vector<ReplaySpec> specs;
        for (const std::string &family : families_)
            for (int d : distances_)
                specs.push_back({family, d, 0.05, 0});
        return specs;
    }

  private:
    static std::string
    prefixOf(const std::string &family)
    {
        return family == "sfq_mesh" ? "core.mesh" : "decoders." + family;
    }

    static faults::FaultSpec
    faultMix(double r)
    {
        faults::FaultSpec spec; // the fault_sweep scenario's mix at rate r
        spec.dropRate = r;
        spec.corruptRate = r;
        spec.delayRate = r;
        spec.stallRate = r;
        spec.duplicateRate = r / 2.0;
        spec.decodeFailRate = r / 4.0;
        return spec;
    }

    std::vector<StreamCell>
    buildCells(std::uint64_t seed) const
    {
        std::vector<StreamCell> cells;
        auto add = [&](const std::string &policy, const std::string &family,
                       int d, const faults::FaultSpec &spec,
                       const faults::RecoveryPolicy &recovery) {
            StreamCell cell;
            cell.policy = policy;
            cell.family = family;
            cell.distance = d;
            StreamConfig &c = cell.config;
            c.lattice = &lattices_.at(d);
            c.physicalRate = 0.05;
            c.syndromeCycleNs = 400.0;
            c.rounds = kRounds;
            c.seed = splitmix(seed + static_cast<std::uint64_t>(d));
            c.latency = family == "tiered"
                            ? StreamLatencyModel::tiered("union_find", d)
                            : StreamLatencyModel::forFamily(family, d);
            c.faults = spec;
            c.faults.seed = splitmix(seed ^ 0xf00dULL);
            c.recovery = recovery;
            cells.push_back(cell);
        };
        const faults::FaultSpec clean;
        const faults::FaultSpec faulty = faultMix(0.05);
        const faults::RecoveryPolicy none;
        faults::RecoveryPolicy retransmit;
        retransmit.parityRetransmit = true;
        retransmit.maxRetransmits = 3;
        faults::RecoveryPolicy deadline;
        deadline.deadlineNs = 600.0;
        faults::RecoveryPolicy shed;
        shed.shedThreshold = 16;
        shed.shedMode = faults::ShedMode::DropOldest;
        for (int d : distances_) {
            add("baseline", "sfq_mesh", d, clean, none);
            add("baseline", "union_find", d, clean, none);
            add("baseline", "tiered", d, clean, none);
            add("retransmit", "union_find", d, faulty, retransmit);
            add("deadline", "tiered", d, faulty, deadline);
            add("shed_drop", "union_find", d, faulty, shed);
        }
        return cells;
    }

    static std::string
    checkStream(const StreamCell &cell, const StreamingResult &r)
    {
        std::ostringstream os;
        if (r.rounds != cell.config.rounds)
            os << "rounds " << r.rounds << " != " << cell.config.rounds << "; ";
        if (!r.clockMonotone)
            os << "virtual clock ran backwards; ";
        const faults::FaultCounts &fc = r.faults;
        if (cell.config.faults.any() || cell.config.recovery.active()) {
            const std::uint64_t accounted = fc.decodedRounds +
                                            fc.carriedForward + fc.lostRounds +
                                            fc.shedRounds + fc.mergedRounds;
            if (accounted != r.rounds)
                os << "round conservation: " << accounted << " accounted of "
                   << r.rounds << "; ";
            if (fc.dedupRounds != fc.duplicates)
                os << "dedup " << fc.dedupRounds << " != duplicates "
                   << fc.duplicates << "; ";
        }
        // Lifetime-protocol PL at p = 5%: the mesh sits near its
        // threshold (~7%), software and tiered below; deadline commits,
        // shedding and lost rounds raise it, but never past 20%. A zero
        // PL over this many rounds would mean nothing was simulated.
        if (!(r.logicalErrorRate > 0.0 && r.logicalErrorRate <= 0.2))
            os << "PL " << r.logicalErrorRate << " outside (0, 0.2]; ";
        return os.str();
    }

    static constexpr std::uint64_t kSalt = 0xfa11ULL;
    static constexpr std::size_t kRounds = 12000;
    Lattices lattices_; ///< one per distance; the cells point at them
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "lifetime_mesh")
        return std::make_unique<LifetimeMesh>();
    if (name == "uf_batch")
        return std::make_unique<UfBatch>();
    if (name == "windowed_mwpm")
        return std::make_unique<WindowedMwpm>();
    if (name == "stream_faults")
        return std::make_unique<StreamFaults>();
    return nullptr;
}

} // namespace perfbench
