/**
 * @file
 * Cycle-level simulator of the SFQ mesh decoder — the paper's core
 * contribution (Sections V and VI). One decoder module per lattice site
 * plus a ring of boundary modules; grow, pair-request, pair-grant and
 * pair signals propagate one module per cycle as persistent pulse trains.
 *
 * Protocol (final design):
 *  1. hot modules emit grow rays in all four directions;
 *  2. modules where two rays meet emit pair-requests back along both
 *     reversed directions;
 *  3. a hot module grants exactly one request (latched);
 *  4. where two grant trains meet, single pair pulses are emitted toward
 *     both endpoints, marking every traversed module as chain member;
 *  5. a pair pulse reaching a hot module clears its latch and fires the
 *     global reset (pair signals are exempt so the farther leg finishes);
 *  6. boundary modules answer grow with pair-request and grant with pair.
 *
 * The mesh state is bit-packed one row per machine word, so each cycle
 * is a handful of bitwise operations per row. A row spans only
 * 2d + 1 <= 19 columns for the distances the experiments run, so most
 * of every word is dead weight in a single-trial decode; the batch
 * entry point reclaims it by *lane packing*: decodeBatch() simulates L
 * independent Monte Carlo trials per word, each in its own span-wide
 * lane. The batch word is a 4 x 64-bit SIMD-friendly vector (GNU
 * vector extension, lowered to SSE/AVX or plain scalar pairs by the
 * compiler), giving 64/span sub-lanes per element: 12 lanes at d = 9,
 * 16 at d = 7, 20 at d = 5 and 32 (capped) at d = 3. The per-cycle
 * shift/AND/OR/XOR plane updates are shared across lanes — lane-guard
 * masks drop each lane's edge column before an east/west shift,
 * exactly the bits the valid mask would kill after a scalar shift —
 * while reset countdowns, quiescence windows, the cycle cap and
 * completion are tracked per lane, so diverging trials freeze
 * independently. Because every piece of per-lane control state is
 * relative to the lane's own start cycle, a lane that freezes is
 * immediately *refilled* with the next pending trial of the batch:
 * lanes never idle waiting for a slow sibling, and the amortized cost
 * per trial is one L-th of a mesh step per cycle. Every lane's
 * corrections and telemetry are bit-identical to a scalar decode of
 * the same syndrome; the scalar decode() runs the same stepping core
 * with a single lane in a plain 64-bit word. decode(), decodeBatch()
 * and decodeFeed() are feeds over that one loop; decodeFeed() lets the
 * caller pick each lane's next syndrome after its last correction,
 * which is how independent lifetimes share one engine.
 */

#ifndef NISQPP_CORE_MESH_DECODER_HH
#define NISQPP_CORE_MESH_DECODER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/simd.hh"
#include "core/mesh_config.hh"
#include "core/mesh_stats.hh"
#include "core/module_logic.hh"
#include "decoders/decoder.hh"

namespace nisqpp {

/**
 * The SFQ mesh decoder. Implements the Decoder interface so the Monte
 * Carlo harness can drive it interchangeably with the software baselines.
 */
class MeshDecoder : public Decoder
{
  public:
    /** Largest lane count any batch geometry uses (v512 at d = 3). */
    static constexpr int kMaxLanes = 64;

    MeshDecoder(const SurfaceLattice &lattice, ErrorType type,
                const MeshConfig &config = MeshConfig::finalDesign());

    using Decoder::decode;
    void decode(const Syndrome &syndrome, TrialWorkspace &ws) override;

    /**
     * Lane-packed batch decode: up to lanes() syndromes advance
     * through the mesh planes together, one lane each, and every
     * freed lane is refilled from the remaining batch, so @p count
     * may (and for throughput should) exceed lanes().
     * Corrections land in ws.laneCorrections[0..count), per-lane
     * telemetry in meshStats(lane) — both bit-identical to scalar
     * decodes of the same syndromes.
     */
    void decodeBatch(const Syndrome *const *syndromes, std::size_t count,
                     TrialWorkspace &ws) override;

    /**
     * Trials the batch engine steps concurrently: elements(lane word)
     * x (64 / span), capped at kMaxLanes.
     */
    int lanes() const override { return batchLanes_; }

    /**
     * Feed-driven decode: one lane runs on the one-lane engine, more
     * on the latched batch engine. Lane l's correction is
     * ws.laneCorrections[l] and its telemetry meshStats(l) while
     * done(l) runs.
     */
    void decodeFeed(LaneFeed &feed, int lanes, TrialWorkspace &ws) override;

    const MeshDecodeStats *meshStats(std::size_t lane = 0) const override;

    /**
     * Emit `decoder.mesh.*` work counters accumulated since
     * construction (MeshWorkCounters::exportTo). Scalar, batched and
     * feed-driven decodes accumulate identically.
     */
    void exportMetrics(obs::MetricSet &out) const override;

    std::string name() const override
    {
        return "sfq-mesh[" + config_.label() + "]";
    }

    const MeshConfig &config() const { return config_; }

    /** Telemetry of the most recent decode (lane 0 of a batch). */
    const MeshDecodeStats &lastStats() const { return batchStats_[0]; }

    /** Lane word width the batch engine was latched to (telemetry). */
    simd::Width batchWidth() const { return width_; }

    /** Hard cap on simulated cycles per decode. */
    int cycleCap() const { return cycleCap_; }

    /** No-progress window before declaring quiescence. */
    int quiescenceWindow() const { return quiescence_; }

    /**
     * Override the cycle cap and quiescence window (tests only: forces
     * the cap/quiescence exits on tame syndromes so lane freezing can
     * be exercised deterministically). Applies to scalar and batched
     * decodes alike. Both limits must be positive: a non-positive cap
     * or window would make every decode exit instantly, which is
     * indistinguishable from (and has been mistaken for) a configured
     * quiescence test — so it hard-errors even in release builds.
     */
    void
    setLimitsForTest(int cycle_cap, int quiescence_window)
    {
        NISQPP_DCHECK(cycle_cap > 0 && quiescence_window > 0,
                      "MeshDecoder::setLimitsForTest: limits must be "
                      "positive");
        require(cycle_cap > 0 && quiescence_window > 0,
                "MeshDecoder::setLimitsForTest: cycle cap and "
                "quiescence window must be positive");
        cycleCap_ = cycle_cap;
        quiescence_ = quiescence_window;
    }

  private:
    /**
     * Everything the stepping core needs for one lane layout: the lane
     * geometry (masks replicated into every lane of every element,
     * shift guards), the mesh planes, per-step scratch and the
     * per-lane control state. LaneEngine<uint64_t> serves scalar
     * decode() with a single lane (bit layout identical to the
     * historical scalar decoder) and the LaneEngine<simd::W64/W256/
     * W512> latched at construction packs lanes() trials — and all
     * run the exact same (templated) stepping code. All per-lane
     * control state is *relative* to the lane's own start cycle, which
     * is what lets decodeLanes() refill a freed lane with the next
     * pending trial mid-flight.
     */
    template <typename W>
    struct LaneEngine
    {
        using Planes = DirRow<std::vector<W>>;

        int lanes = 1;
        int perElem = 1; ///< sub-lanes per 64-bit element (64 / span)
        W guardE{};      ///< cleared before << 1 (per element)
        W guardW{};      ///< cleared before >> 1
        std::vector<W> interior, bnd, valid; ///< replicated row masks
        std::array<W, kMaxLanes> laneMask{};
        /** Lane address: element index + sub-lane mask/base inside it. */
        std::array<int, kMaxLanes> laneElem{};
        std::array<std::uint64_t, kMaxLanes> laneSub{};
        std::array<int, kMaxLanes> laneBase{};

        // Per-decode mesh state, shared by every lane. The signal
        // planes are double-buffered *outputs*: `g`/`rq`/`gr`/`pr`
        // hold the previous cycle's emissions (each cycle derives its
        // shifted inputs from them on the fly), `gOut`... collect this
        // cycle's and the buffers swap at the end of the step.
        Planes g, rq, gr, pr;       ///< last cycle's emitted signals
        Planes gOut, rqOut, grOut, prOut; ///< this cycle's (scratch)
        Planes grantLatch;          ///< hot modules' grant choice
        std::vector<W> formed; ///< sticky "this module formed a pair"
        std::vector<W> fired;  ///< cleared endpoints still absorbing
        std::vector<W> hot;
        std::vector<W> chain;
        std::vector<W> fire; ///< per-step scratch (no allocation)

        // Per-lane control state: diverging lanes freeze independently.
        // Cycles are 64-bit: a feed-driven loop may step one engine
        // through a whole lattice's lifetimes.
        std::array<int, kMaxLanes> resetCountdown{};
        std::array<std::int64_t, kMaxLanes> lastFire{};
        std::array<int, kMaxLanes> hotCount{};
        std::array<bool, kMaxLanes> active{};
        std::int64_t cycle = 0;
        W prOcc{}; ///< pair-plane occupancy after the last step
    };

    template <typename W>
    void buildEngine(LaneEngine<W> &e, int max_lanes) const;
    template <typename W>
    void stepLanes(LaneEngine<W> &e, MeshDecodeStats *const *laneStats);
    template <typename W>
    void finishLane(LaneEngine<W> &e, int lane, Correction &out,
                    MeshDecodeStats &stats);
    /**
     * The one lane loop: inject each idle lane's next trial from
     * @p feed, step every lane one cycle, retire finished lanes, until
     * the feed runs dry with every lane idle. Feed::take(lane, syn,
     * out, stats) claims a trial (false: none now) and Feed::done(lane)
     * retires it; templated so decode() pays no virtual call.
     */
    template <typename W, typename Feed>
    void decodeLanes(LaneEngine<W> &e, Feed &feed);
    /** decodeLanes() on the latched width's batch engine. */
    template <typename Feed>
    void decodeOnBatchEngine(Feed &feed);

    MeshConfig config_;
    int span_;      ///< grid size + 2 (boundary ring included)
    int cycleCap_;
    int quiescence_;

    /** Dispatch width latched at construction (simd::activeWidth). */
    simd::Width width_;

    LaneEngine<std::uint64_t> scalar_; ///< one lane: decode()
    /** Packed-lane engines; only the latched width's is built. @{ */
    LaneEngine<simd::W64> batch64_;
    LaneEngine<simd::W256> batch256_;
    LaneEngine<simd::W512> batch512_;
    /** @} */

    /** Lane count of the latched batch engine. */
    int batchLanes_ = 1;

    /** Telemetry of the last decode, one entry per lane decoded. */
    std::vector<MeshDecodeStats> batchStats_{1};

    /** Deterministic work counters (see exportMetrics). */
    MeshWorkCounters work_;
};

} // namespace nisqpp

#endif // NISQPP_CORE_MESH_DECODER_HH
