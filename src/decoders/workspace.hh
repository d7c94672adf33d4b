/**
 * @file
 * Per-thread trial workspace: every scratch buffer a decoder needs
 * during one decode, owned by the Monte Carlo driver and reused across
 * the thousands of trials in an engine shard. The engine keeps one
 * workspace per worker thread; decoders borrow from it through the
 * workspace-aware `Decoder::decode` overload, so steady-state decoding
 * performs no heap allocation at all (buffers grow to the high-water
 * mark of the hardest syndrome and stay there).
 *
 * Buffers are grouped by consumer but deliberately shared across
 * decoder *instances* (the Z and X decoders of a depolarizing run, or
 * different distances in one sweep): every user assign()s or clear()s
 * what it borrows before reading it.
 *
 * Decoders whose scratch is tied to their own graph keep it instead:
 * union-find borrows nothing here beyond the output buffers — its lane
 * engine state is decoder-owned, and decoders are shard-private — and
 * the mesh likewise keeps its lane engine as members.
 */

#ifndef NISQPP_DECODERS_WORKSPACE_HH
#define NISQPP_DECODERS_WORKSPACE_HH

#include <vector>

#include "decoders/blossom.hh"
#include "decoders/decoder.hh"
#include "decoders/matching_graph.hh"

namespace nisqpp {

/** One weighted candidate edge of the greedy matcher. */
struct WeightedEdge
{
    int w;
    int i;
    int j; ///< -1 encodes the boundary edge of node i
};

/** Reusable scratch for one thread's decode loop. */
class TrialWorkspace
{
  public:
    /** The decoder's output buffer (cleared, not shrunk, per decode). */
    Correction correction;

    /**
     * Per-lane output buffers of Decoder::decodeBatch: entry i holds
     * the correction of syndrome i of the last batch. Sized to the
     * batch high-water mark; capacities are kept across batches.
     */
    std::vector<Correction> laneCorrections;

    /** @name Matching-based decoders (MWPM, greedy) @{ */
    MatchingGraph graph;           ///< rebuilt per decode, capacity kept
    BlossomMatcher matcher;        ///< reset per decode, arrays kept
    std::vector<int> mate;         ///< blossom output
    std::vector<WeightedEdge> greedyEdges;
    std::vector<char> matched;
    /** @} */
};

} // namespace nisqpp

#endif // NISQPP_DECODERS_WORKSPACE_HH
