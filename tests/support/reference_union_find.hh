/**
 * @file
 * Reference union-find decoder: the textbook Delfosse & Nickerson
 * growth + peel written for clarity, not speed. Every growth round
 * scans the whole edge list, and the peel walks a BFS forest over all
 * vertices. It shares no code with UnionFindDecoder's lane engine, so
 * the tests can pin the engine's corrections and decoder.uf.* counters
 * to it — both on the 2D ancilla graph and on the spacetime graph of a
 * faulty-measurement window.
 *
 * Vertex and edge numbering follow the decoder's documented layout, so
 * equal algorithms emit equal correction sequences: vertex (t, a) is
 * t * numAncilla + a, each boundary data qubit gets a private virtual
 * boundary vertex appended after all real ones, and round t's edges
 * are its spatial edges in data-qubit order, then its time-like edges
 * to round t + 1 in ancilla order.
 */

#ifndef NISQPP_TESTS_SUPPORT_REFERENCE_UNION_FIND_HH
#define NISQPP_TESTS_SUPPORT_REFERENCE_UNION_FIND_HH

#include <cstdint>
#include <map>
#include <vector>

#include "surface/lattice.hh"
#include "surface/syndrome.hh"
#include "surface/syndrome_window.hh"

namespace nisqpp {

class ReferenceUnionFind
{
  public:
    /** Cumulative work, named after the decoder.uf.* metrics. */
    struct Counters
    {
        std::uint64_t decodes = 0;       ///< 2D and windowed decodes
        std::uint64_t windowDecodes = 0; ///< windowed decodes only
        std::uint64_t growthRounds = 0;  ///< summed over decodes
        std::uint64_t peelFlips = 0;     ///< summed correction lengths
        /** growth-round count -> number of decodes that used it */
        std::map<int, std::uint64_t> roundsHist;
    };

    ReferenceUnionFind(const SurfaceLattice &lattice, ErrorType type);

    /** Data-qubit flips correcting a perfect-measurement syndrome. */
    std::vector<int> decode(const Syndrome &syndrome);

    /**
     * Data-qubit flips correcting a window's detection events on the
     * spacetime graph (time-like edges flip no data qubit).
     */
    std::vector<int> decodeWindow(const SyndromeWindow &window);

    /** Growth rounds used by the last decode. */
    int lastGrowthRounds() const { return lastRounds_; }

    const Counters &counters() const { return counters_; }

  private:
    struct Edge
    {
        int u, v;
        int dataIdx; ///< -1 for a time-like edge
    };

    /** Build the graph of @p rounds rounds (1 = the 2D graph). */
    void buildGraph(int rounds);

    /** Growth + peel from the hot vertices in @p hot. */
    std::vector<int> run(std::vector<char> hot);

    int find(int v);
    void unite(int a, int b);

    const SurfaceLattice *lattice_;
    ErrorType type_;
    int graphRounds_ = 0;
    std::vector<Edge> edges_;
    std::vector<std::vector<int>> incident_;
    int numAncillaVertices_ = 0;
    int numVertices_ = 0;

    std::vector<int> parent_, rank_;
    std::vector<char> parity_, boundary_;

    int lastRounds_ = 0;
    Counters counters_;
};

} // namespace nisqpp

#endif // NISQPP_TESTS_SUPPORT_REFERENCE_UNION_FIND_HH
