/**
 * @file
 * Exact minimum-weight perfect matching decoder (the paper's primary
 * software baseline, Section IV). Builds the standard syndrome graph:
 * one node per hot ancilla plus one virtual boundary node per hot
 * ancilla, boundary-boundary edges free, and solves it exactly with the
 * blossom matcher.
 */

#ifndef NISQPP_DECODERS_MWPM_DECODER_HH
#define NISQPP_DECODERS_MWPM_DECODER_HH

#include <cstdint>

#include "decoders/decoder.hh"
#include "decoders/matching_graph.hh"

namespace nisqpp {

/** Exact MWPM decoder. */
class MwpmDecoder : public Decoder
{
  public:
    MwpmDecoder(const SurfaceLattice &lattice, ErrorType type)
        : Decoder(lattice, type)
    {}

    using Decoder::decode;
    void decode(const Syndrome &syndrome, TrialWorkspace &ws) override;

    /**
     * Spacetime MWPM over a faulty-measurement window: exact blossom
     * matching on the detection events with time-like edge weights
     * (MatchingGraph::buildWindow). Time-like legs flip no data
     * qubits — they re-interpret measurement flips — so the committed
     * correction is the XOR of the spatial chain segments only.
     */
    void decodeWindow(const SyndromeWindow &window,
                      TrialWorkspace &ws) override;
    bool windowAware() const override { return true; }

    /** A perfect matching's chains reproduce the syndrome exactly. */
    bool correctionClearsSyndrome() const override { return true; }

    std::string name() const override { return "mwpm"; }

    /** The pairing decisions of the last decode (for inspection). */
    const std::vector<MatchPair> &lastMatching() const { return pairs_; }

    /**
     * Emit `decoder.mwpm.*` work counters accumulated since
     * construction: decode counts, blossom augmenting paths, matched
     * pairs and emitted correction length.
     */
    void exportMetrics(obs::MetricSet &out) const override;

  private:
    /**
     * Shared matcher body: solve ws.graph (already built, space-only
     * or spacetime) with the blossom matcher and emit pairs_ +
     * ws.correction. Space-only graphs never pair two nodes of the
     * same ancilla, so the pure-time-like skip is a no-op there.
     */
    void matchBuiltGraph(TrialWorkspace &ws);

    std::vector<MatchPair> pairs_;

    /** Deterministic work counters (see exportMetrics). @{ */
    std::uint64_t decodes_ = 0;
    std::uint64_t windowDecodes_ = 0;
    std::uint64_t augmentationsTotal_ = 0;
    std::uint64_t pairsTotal_ = 0;
    std::uint64_t correctionFlipsTotal_ = 0;
    /** @} */
};

} // namespace nisqpp

#endif // NISQPP_DECODERS_MWPM_DECODER_HH
