#include "decoders/mwpm_decoder.hh"

#include "common/logging.hh"
#include "decoders/path.hh"
#include "decoders/workspace.hh"
#include "obs/metrics.hh"

namespace nisqpp {

void
MwpmDecoder::exportMetrics(obs::MetricSet &out) const
{
    if (decodes_ == 0)
        return;
    out.add("decoder.mwpm.decodes", decodes_);
    out.add("decoder.mwpm.window_decodes", windowDecodes_);
    out.add("decoder.mwpm.augmentations", augmentationsTotal_);
    out.add("decoder.mwpm.pairs", pairsTotal_);
    out.add("decoder.mwpm.correction_flips", correctionFlipsTotal_);
}

void
MwpmDecoder::decode(const Syndrome &syndrome, TrialWorkspace &ws)
{
    pairs_.clear();
    ws.correction.clear();
    ++decodes_;
    ws.graph.build(lattice(), type(), syndrome);
    matchBuiltGraph(ws);
}

void
MwpmDecoder::decodeWindow(const SyndromeWindow &window,
                          TrialWorkspace &ws)
{
    pairs_.clear();
    ws.correction.clear();
    ++decodes_;
    ++windowDecodes_;
    ws.graph.buildWindow(lattice(), type(), window);
    matchBuiltGraph(ws);
}

void
MwpmDecoder::matchBuiltGraph(TrialWorkspace &ws)
{
    const MatchingGraph &graph = ws.graph;
    const int k = graph.numNodes();
    if (k == 0)
        return;

    // Nodes 0..k-1 are defects (hot ancillas, or detection events on
    // spacetime builds); k..2k-1 their private boundary nodes, with
    // free boundary-boundary edges. pairWeight carries the time-like
    // |dt| term on spacetime builds.
    BlossomMatcher &matcher = ws.matcher;
    matcher.reset(2 * k);
    for (int i = 0; i < k; ++i) {
        for (int j = i + 1; j < k; ++j)
            matcher.setWeight(i, j, graph.pairWeight(i, j));
        matcher.setWeight(i, k + i, graph.boundaryWeight(i));
        for (int j = i + 1; j < k; ++j)
            matcher.setWeight(k + i, k + j, 0);
    }
    matcher.solve(ws.mate);
    augmentationsTotal_ +=
        static_cast<std::uint64_t>(matcher.lastAugmentations());

    for (int i = 0; i < k; ++i) {
        const int m = ws.mate[i];
        require(m >= 0, "MwpmDecoder: unmatched node");
        if (m == k + i) {
            pairs_.push_back({graph.ancillaOf(i), -1, true});
            appendChainToBoundary(lattice(), type(), graph.ancillaOf(i),
                                  ws.correction.dataFlips);
        } else if (m < k && m > i) {
            pairs_.push_back({graph.ancillaOf(i), graph.ancillaOf(m),
                              false});
            // A pure time-like pairing (same ancilla, different
            // rounds) is a measurement error: no data flips.
            if (graph.ancillaOf(i) != graph.ancillaOf(m))
                appendChainBetweenAncillas(lattice(), type(),
                                           graph.ancillaOf(i),
                                           graph.ancillaOf(m),
                                           ws.correction.dataFlips);
        }
    }
    pairsTotal_ += pairs_.size();
    correctionFlipsTotal_ += ws.correction.dataFlips.size();
}

} // namespace nisqpp
