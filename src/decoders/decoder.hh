/**
 * @file
 * Common decoder interface. A decoder maps an error syndrome for one
 * error type to a correction: the set of data qubits whose corresponding
 * Pauli component should be flipped (paper Section II-C1).
 */

#ifndef NISQPP_DECODERS_DECODER_HH
#define NISQPP_DECODERS_DECODER_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/confidence.hh"
#include "core/mesh_stats.hh"
#include "surface/error_state.hh"
#include "surface/lattice.hh"
#include "surface/syndrome.hh"
#include "surface/syndrome_window.hh"

namespace nisqpp {

namespace obs {
class MetricSet;
}

class TrialWorkspace;

/** A decoder's output: data-qubit flips of the decoded error type. */
struct Correction
{
    std::vector<int> dataFlips; ///< compact data indices, XOR semantics

    /** Drop the flips but keep the buffer's capacity (reuse). */
    void clear() { dataFlips.clear(); }

    /** Apply onto an error state (composition = residual computation). */
    void
    applyTo(ErrorState &state, ErrorType type) const
    {
        for (int d : dataFlips)
            state.flip(type, d);
    }
};

/**
 * Source and sink of Decoder::decodeFeed: hands each lane its next
 * syndrome and takes the lane's correction back. A lane's next
 * syndrome may depend on its previous correction, because done() for
 * a lane always runs before that lane's next call to next().
 */
class LaneFeed
{
  public:
    virtual ~LaneFeed() = default;

    /** Lane @p lane's next syndrome; null when there is none now. */
    virtual const Syndrome *next(int lane) = 0;

    /**
     * Lane @p lane finished decoding its syndrome into @p fix; @p stats
     * is the decode's mesh telemetry (null for decoders without it).
     */
    virtual void done(int lane, const Correction &fix,
                      const MeshDecodeStats *stats) = 0;
};

/**
 * Abstract decoder bound to one lattice and one error type. Decoders are
 * stateful only in reusable scratch buffers; decode() is deterministic.
 */
class Decoder
{
  public:
    Decoder(const SurfaceLattice &lattice, ErrorType type)
        : lattice_(&lattice), type_(type)
    {}

    virtual ~Decoder() = default;

    const SurfaceLattice &lattice() const { return *lattice_; }
    ErrorType type() const { return type_; }

    /**
     * Decode @p syndrome into @p ws.correction, borrowing every scratch
     * buffer from @p ws so repeated decodes allocate nothing. Every
     * decoder implements this; it is the one decode path.
     */
    virtual void decode(const Syndrome &syndrome, TrialWorkspace &ws) = 0;

    /**
     * Convenience for one-off callers (examples, tests): decode into a
     * fresh local workspace and return the correction. Allocates per
     * call. Concrete decoders re-expose it with `using Decoder::decode`.
     */
    virtual Correction decode(const Syndrome &syndrome);

    /**
     * Decode @p count independent syndromes into
     * ws.laneCorrections[0..count), each entry exactly what
     * decode(*syndromes[i], ws) would produce. The base implementation
     * is a scalar fallback loop (software decoders have no batch
     * substrate to win from); MeshDecoder overrides it with the
     * lane-packed path that steps several trials per 64-bit word.
     */
    virtual void decodeBatch(const Syndrome *const *syndromes,
                             std::size_t count, TrialWorkspace &ws);

    /**
     * Trials decodeFeed() keeps in flight at once: 1, except for the
     * lane-packed mesh.
     */
    virtual int lanes() const { return 1; }

    /**
     * Decode syndromes pulled from @p feed on lanes [0, @p lanes),
     * 1 <= lanes <= lanes(), until every lane is idle and the feed has
     * nothing more. Each decode is exactly what decode() would produce
     * for the same syndrome. The base implementation is the scalar
     * loop on lane 0; MeshDecoder steps the lanes together and refills
     * each freed lane at once.
     */
    virtual void decodeFeed(LaneFeed &feed, int lanes, TrialWorkspace &ws);

    /**
     * Decode a multi-round measurement window into ws.correction: the
     * net data flips to commit at the window boundary. The default
     * implementation reduces the window by round-majority voting and
     * feeds the result to decode() — correct when measurement noise is
     * rare relative to the window length. Window-aware decoders (MWPM,
     * union-find) override this with true spacetime matching over the
     * detection events and report windowAware() = true.
     */
    virtual void decodeWindow(const SyndromeWindow &window,
                              TrialWorkspace &ws);

    /**
     * Decode @p count independent windows into
     * ws.laneCorrections[0..count), each entry exactly what
     * decodeWindow(*windows[i], ws) would produce (scalar loop; no
     * decoder has a lane-packed window substrate yet).
     */
    virtual void decodeWindowBatch(const SyndromeWindow *const *windows,
                                   std::size_t count,
                                   TrialWorkspace &ws);

    /**
     * Whether decodeWindow runs true spacetime decoding rather than
     * the round-majority fallback.
     */
    virtual bool windowAware() const { return false; }

    /**
     * Whether applying this decoder's correction is guaranteed to
     * clear the decoded syndrome exactly (re-extracting after the
     * commit yields zero). True for the exact matchers — MWPM and
     * greedy always produce complete matchings — and for union-find,
     * whose peel drains every interior vertex by construction. False
     * by default: the mesh is approximate (cycle caps and quiescence
     * exits can strand hot modules), and the streaming pipeline's
     * batched consumer relies on this property to difference
     * consecutive syndromes, so it must never be claimed loosely.
     */
    virtual bool correctionClearsSyndrome() const { return false; }

    /**
     * Mesh telemetry of lane @p lane of the most recent decode (a
     * scalar decode fills lane 0 only). Null for decoders without mesh
     * telemetry and for lanes past the last decode's batch size —
     * callers probe this instead of dynamic_casting to MeshDecoder.
     */
    virtual const MeshDecodeStats *
    meshStats(std::size_t lane = 0) const
    {
        (void)lane;
        return nullptr;
    }

    /**
     * Tiered telemetry of lane @p lane of the most recent decode:
     * confidence, escalation and frame-repair outcome. Null for
     * decoders without a tiered path and for lanes past the last
     * decode's batch size — the streaming pipeline probes this to
     * charge escalation latency and count repairs without knowing the
     * concrete decoder type.
     */
    virtual const TieredDecodeStats *
    tieredStats(std::size_t lane = 0) const
    {
        (void)lane;
        return nullptr;
    }

    virtual std::string name() const = 0;

    /**
     * Export the deterministic work counters accumulated since
     * construction into @p out under this decoder's `decoder.<kind>.*`
     * namespace (UF growth rounds and peel lengths, blossom
     * augmentations, mesh cycle/cap/quiescence counts). Counters only
     * depend on the decoded syndromes, never on the host, so exported
     * sets merge deterministically across shards. Default: no-op for
     * decoders without instrumentation.
     */
    virtual void
    exportMetrics(obs::MetricSet &out) const
    {
        (void)out;
    }

  private:
    const SurfaceLattice *lattice_;
    ErrorType type_;
    /** Majority-vote scratch of the fallback decodeWindow (lazy). */
    std::unique_ptr<Syndrome> windowScratch_;
};

} // namespace nisqpp

#endif // NISQPP_DECODERS_DECODER_HH
