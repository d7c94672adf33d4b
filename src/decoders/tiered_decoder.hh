/**
 * @file
 * Tiered decoder: the SFQ mesh decodes every syndrome (scalar, batch
 * lane, or spacetime window) and its answer is committed provisionally;
 * a confidence score derived from the mesh's own telemetry (cycles,
 * resets, cap/quiescence exits, unresolved hot count — see
 * core/confidence.hh) escalates low-confidence decodes to an exact
 * software backend, and when the exact decoder disagrees the
 * difference is emitted as a Pauli-frame repair. This is the paper's
 * thesis run online: the mesh buys its speed on the easy (overwhelming
 * majority of) windows, the exact decoder backstops the hard tail, and
 * the escalation rate is the price actually paid.
 *
 * The final correction a tiered decode reports is always the
 * *post-repair* one (the exact decoder's answer when escalated, the
 * mesh's otherwise), so corrections — and therefore PL aggregates —
 * remain bit-identical between scalar, batched and streamed execution
 * exactly like every other decoder; the provisional-commit-then-repair
 * sequence is replayed by the streaming pipeline from tieredStats().
 */

#ifndef NISQPP_DECODERS_TIERED_DECODER_HH
#define NISQPP_DECODERS_TIERED_DECODER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "core/confidence.hh"
#include "core/mesh_decoder.hh"
#include "decoders/decoder.hh"

namespace nisqpp {

class TieredDecoder : public Decoder
{
  public:
    /** Confidence histogram resolution: bins of 1/64. */
    static constexpr std::size_t kConfidenceBins = 64;

    /**
     * @param mesh      First-tier mesh decoder (owned).
     * @param exact     Escalation backend (owned; union-find or MWPM).
     * @param threshold Decodes with confidence < threshold escalate.
     *                  0 never escalates (pure-mesh with tiered
     *                  bookkeeping); anything > 1 always escalates.
     */
    TieredDecoder(const SurfaceLattice &lattice, ErrorType type,
                  std::unique_ptr<MeshDecoder> mesh,
                  std::unique_ptr<Decoder> exact, double threshold);

    using Decoder::decode;
    void decode(const Syndrome &syndrome, TrialWorkspace &ws) override;

    /**
     * Lane-packed first tier: the mesh decodes all @p count syndromes
     * through its batch substrate, then each low-confidence lane is
     * escalated scalar through the exact backend. Per-lane corrections
     * and telemetry are bit-identical to scalar tiered decodes of the
     * same syndromes.
     */
    void decodeBatch(const Syndrome *const *syndromes, std::size_t count,
                     TrialWorkspace &ws) override;

    /**
     * Windowed first tier: the mesh's decodeWindow (round-majority
     * reduction) decodes the window, its inner decode's telemetry is
     * scored, and low confidence escalates to the exact backend's true
     * spacetime decodeWindow.
     */
    void decodeWindow(const SyndromeWindow &window,
                      TrialWorkspace &ws) override;

    /** True spacetime escalation is available iff the backend has it. */
    bool windowAware() const override { return exact_->windowAware(); }

    const MeshDecodeStats *
    meshStats(std::size_t lane = 0) const override
    {
        return mesh_->meshStats(lane);
    }

    const TieredDecodeStats *
    tieredStats(std::size_t lane = 0) const override
    {
        return lane < stats_.size() ? &stats_[lane] : nullptr;
    }

    /**
     * Emit `decoder.tiered.*` counters accumulated since construction
     * (decodes, escalations, repairs, repair flip total, the
     * 64-bin confidence histogram) plus both children's own counters.
     */
    void exportMetrics(obs::MetricSet &out) const override;

    std::string name() const override;

    double threshold() const { return threshold_; }

    /** The first-tier mesh (tests tighten its limits to force escalation). */
    MeshDecoder &mesh() { return *mesh_; }

    /** The escalation backend. */
    Decoder &exact() { return *exact_; }

  private:
    /**
     * Score lane @p lane's mesh telemetry into @p ts and, below the
     * threshold, run the exact backend on @p syndrome and swap its
     * correction into @p out (which holds the mesh's provisional
     * answer on entry, the final answer on exit).
     */
    void escalateIfNeeded(const Syndrome &syndrome, TrialWorkspace &ws,
                          Correction &out, const MeshDecodeStats &mesh,
                          TieredDecodeStats &ts);

    /** Score + count one decode; true when it must escalate. */
    bool scoreDecode(const MeshDecodeStats &mesh, TieredDecodeStats &ts);

    /** Note the repair (counters + ts) for a finished escalation. */
    void finishEscalation(TieredDecodeStats &ts);

    std::unique_ptr<MeshDecoder> mesh_;
    std::unique_ptr<Decoder> exact_;
    double threshold_;

    /** Per-lane telemetry of the most recent decode. */
    std::vector<TieredDecodeStats> stats_{1};

    /** Provisional-mesh / exact flip scratch (reused, no alloc). @{ */
    Correction provisional_;
    std::vector<int> diffScratch_;
    /** @} */

    /** Deterministic work counters (see exportMetrics). @{ */
    std::uint64_t decodes_ = 0;
    std::uint64_t windowDecodes_ = 0;
    std::uint64_t escalations_ = 0;
    std::uint64_t repairs_ = 0;
    std::uint64_t repairFlipsTotal_ = 0;
    Histogram confidenceHist_{kConfidenceBins - 1};
    std::uint64_t confidenceBinSum_ = 0;
    /** @} */
};

} // namespace nisqpp

#endif // NISQPP_DECODERS_TIERED_DECODER_HH
