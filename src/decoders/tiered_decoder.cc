#include "decoders/tiered_decoder.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "decoders/workspace.hh"
#include "obs/metrics.hh"

namespace nisqpp {

namespace {

/**
 * Sort a flip list and cancel duplicate entries mod 2 in place (a
 * qubit flipped twice is not flipped). Both the mesh and the software
 * decoders emit each qubit at most once in practice, but the repair
 * diff must hold under XOR semantics regardless.
 */
void
canonicalize(std::vector<int> &flips)
{
    std::sort(flips.begin(), flips.end());
    std::size_t out = 0;
    for (std::size_t i = 0; i < flips.size();) {
        std::size_t j = i;
        while (j < flips.size() && flips[j] == flips[i])
            ++j;
        if ((j - i) & 1)
            flips[out++] = flips[i];
        i = j;
    }
    flips.resize(out);
}

/** Symmetric difference of two canonicalized (sorted, unique) lists. */
void
symmetricDifference(const std::vector<int> &a, const std::vector<int> &b,
                    std::vector<int> &out)
{
    out.clear();
    std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                  std::back_inserter(out));
}

} // namespace

TieredDecoder::TieredDecoder(const SurfaceLattice &lattice,
                             ErrorType type,
                             std::unique_ptr<MeshDecoder> mesh,
                             std::unique_ptr<Decoder> exact,
                             double threshold)
    : Decoder(lattice, type), mesh_(std::move(mesh)),
      exact_(std::move(exact)), threshold_(threshold)
{
    require(mesh_ != nullptr && exact_ != nullptr,
            "TieredDecoder: both tiers are required");
    require(&mesh_->lattice() == &lattice &&
                &exact_->lattice() == &lattice,
            "TieredDecoder: tiers must share the decoder's lattice");
    require(mesh_->type() == type && exact_->type() == type,
            "TieredDecoder: tiers must decode the same error family");
}

bool
TieredDecoder::scoreDecode(const MeshDecodeStats &mesh,
                           TieredDecodeStats &ts)
{
    ts.reset();
    const MeshConfidence conf{mesh_->quiescenceWindow()};
    ts.confidence = conf.score(mesh);
    ++decodes_;
    const auto bin = static_cast<std::size_t>(
        std::min(ts.confidence, 1.0) * (kConfidenceBins - 1));
    confidenceHist_.add(bin);
    confidenceBinSum_ += bin;
    return ts.confidence < threshold_;
}

void
TieredDecoder::finishEscalation(TieredDecodeStats &ts)
{
    ++escalations_;
    ts.escalated = true;
    if (!ts.repairFlips.empty()) {
        ts.repaired = true;
        ++repairs_;
        repairFlipsTotal_ += ts.repairFlips.size();
    }
}

void
TieredDecoder::escalateIfNeeded(const Syndrome &syndrome,
                                TrialWorkspace &ws, Correction &out,
                                const MeshDecodeStats &mesh,
                                TieredDecodeStats &ts)
{
    if (!scoreDecode(mesh, ts))
        return;
    // Park the mesh's provisional answer, let the exact tier decode
    // into ws.correction, and diff the two into the frame repair.
    std::swap(provisional_.dataFlips, out.dataFlips);
    exact_->decode(syndrome, ws);
    if (&out != &ws.correction)
        std::swap(out.dataFlips, ws.correction.dataFlips);
    canonicalize(provisional_.dataFlips);
    diffScratch_ = out.dataFlips;
    canonicalize(diffScratch_);
    symmetricDifference(provisional_.dataFlips, diffScratch_,
                        ts.repairFlips);
    finishEscalation(ts);
}

void
TieredDecoder::decode(const Syndrome &syndrome, TrialWorkspace &ws)
{
    stats_.resize(1);
    mesh_->decode(syndrome, ws);
    escalateIfNeeded(syndrome, ws, ws.correction, mesh_->lastStats(),
                     stats_[0]);
}

void
TieredDecoder::decodeBatch(const Syndrome *const *syndromes,
                           std::size_t count, TrialWorkspace &ws)
{
    if (count == 0)
        return;
    stats_.resize(count);
    mesh_->decodeBatch(syndromes, count, ws);
    // Escalations run scalar after the lane-packed first tier, in lane
    // order, so counters and corrections match a scalar tiered loop
    // over the same syndromes bit for bit.
    for (std::size_t i = 0; i < count; ++i)
        escalateIfNeeded(*syndromes[i], ws, ws.laneCorrections[i],
                         *mesh_->meshStats(i), stats_[i]);
}

void
TieredDecoder::decodeWindow(const SyndromeWindow &window,
                            TrialWorkspace &ws)
{
    stats_.resize(1);
    TieredDecodeStats &ts = stats_[0];
    // First tier: the mesh's round-majority window reduction; its
    // inner scalar decode leaves the telemetry we score.
    mesh_->decodeWindow(window, ws);
    ++windowDecodes_;
    if (!scoreDecode(mesh_->lastStats(), ts))
        return;
    std::swap(provisional_.dataFlips, ws.correction.dataFlips);
    exact_->decodeWindow(window, ws);
    canonicalize(provisional_.dataFlips);
    diffScratch_ = ws.correction.dataFlips;
    canonicalize(diffScratch_);
    symmetricDifference(provisional_.dataFlips, diffScratch_,
                        ts.repairFlips);
    finishEscalation(ts);
}

void
TieredDecoder::exportMetrics(obs::MetricSet &out) const
{
    if (decodes_ != 0) {
        out.add("decoder.tiered.decodes", decodes_);
        out.add("decoder.tiered.window_decodes", windowDecodes_);
        out.add("decoder.tiered.escalations", escalations_);
        out.add("decoder.tiered.repairs", repairs_);
        out.add("decoder.tiered.repair_flips", repairFlipsTotal_);
        out.mergeHistogram("decoder.tiered.confidence_q64",
                           confidenceHist_, confidenceBinSum_);
    }
    mesh_->exportMetrics(out);
    exact_->exportMetrics(out);
}

std::string
TieredDecoder::name() const
{
    char thr[32];
    std::snprintf(thr, sizeof thr, "%.2f", threshold_);
    return "tiered[" + mesh_->name() + "->" + exact_->name() + "@" +
           thr + "]";
}

} // namespace nisqpp
