/**
 * @file
 * The paper's software greedy matching (Section V-B): sort all candidate
 * pairings by ascending chain length (descending likelihood) and accept
 * each edge whose endpoints are still free. External boundary nodes are
 * modeled per ancilla. This is a 2-approximation of the optimal matching
 * [13] and is the algorithmic ideal the SFQ mesh approximates in time.
 */

#ifndef NISQPP_DECODERS_GREEDY_DECODER_HH
#define NISQPP_DECODERS_GREEDY_DECODER_HH

#include "decoders/decoder.hh"
#include "decoders/matching_graph.hh"

namespace nisqpp {

/** Greedy sorted-edge matching decoder. */
class GreedyDecoder : public Decoder
{
  public:
    GreedyDecoder(const SurfaceLattice &lattice, ErrorType type)
        : Decoder(lattice, type)
    {}

    using Decoder::decode;
    void decode(const Syndrome &syndrome, TrialWorkspace &ws) override;

    /**
     * Batch decode straight into the lane buffers: each trial's chains
     * are appended to ws.laneCorrections[i] directly instead of
     * detouring through ws.correction and swapping afterwards (the
     * base-class fallback), so the hot loop touches one buffer per
     * lane and every buffer keeps its high-water capacity.
     */
    void decodeBatch(const Syndrome *const *syndromes, std::size_t count,
                     TrialWorkspace &ws) override;

    /** Every node is matched (to a partner or its boundary). */
    bool correctionClearsSyndrome() const override { return true; }

    std::string name() const override { return "greedy"; }

    /** Pairing decisions of the last decode. */
    const std::vector<MatchPair> &lastMatching() const { return pairs_; }

  private:
    /** Shared matcher body writing chains into @p out. */
    void decodeInto(const Syndrome &syndrome, TrialWorkspace &ws,
                    Correction &out);

    std::vector<MatchPair> pairs_;
};

} // namespace nisqpp

#endif // NISQPP_DECODERS_GREEDY_DECODER_HH
