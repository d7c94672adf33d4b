/**
 * @file
 * Telemetry of one SFQ mesh decode. Lives apart from the decoder so the
 * generic Decoder interface can expose mesh telemetry (per decode and
 * per batch lane) without depending on the mesh implementation — the
 * streaming latency model and the Monte Carlo harness consume these
 * through the virtual Decoder::meshStats() hook.
 */

#ifndef NISQPP_CORE_MESH_STATS_HH
#define NISQPP_CORE_MESH_STATS_HH

#include <cstdint>

namespace nisqpp {

namespace obs {
class MetricSet;
}

/** Telemetry from one mesh decode (one lane of a batched decode). */
struct MeshDecodeStats
{
    int cycles = 0;            ///< total mesh cycles to completion
    int pairings = 0;          ///< hot-latch clears (chain endpoints)
    int resets = 0;            ///< global resets fired
    int remainingHot = 0;      ///< unresolved syndromes at exit
    bool quiesced = false;     ///< exited via no-progress window
    bool timedOut = false;     ///< exited via hard cycle cap

    /** Wall-clock nanoseconds at @p period_ps per cycle. */
    double
    nanoseconds(double period_ps) const
    {
        return cycles * period_ps * 1e-3;
    }

    bool operator==(const MeshDecodeStats &o) const = default;
};

/**
 * Deterministic mesh work counters summed over decodes: what a
 * MeshDecoder accumulates since construction, and what a lane-packed
 * lifetime tallies from its own decodes alone.
 */
struct MeshWorkCounters
{
    std::uint64_t decodes = 0;
    std::uint64_t cycles = 0;
    std::uint64_t pairings = 0;
    std::uint64_t resets = 0;
    std::uint64_t capped = 0;   ///< exits via the cycle cap
    std::uint64_t quiesced = 0; ///< exits via the no-progress window

    void
    add(const MeshDecodeStats &stats)
    {
        ++decodes;
        cycles += static_cast<std::uint64_t>(stats.cycles);
        pairings += static_cast<std::uint64_t>(stats.pairings);
        resets += static_cast<std::uint64_t>(stats.resets);
        capped += stats.timedOut ? 1 : 0;
        quiesced += stats.quiesced ? 1 : 0;
    }

    /**
     * Add the `decoder.mesh.*` counters (decodes, cycles, pairings,
     * resets, cycles_capped, quiesced) to @p out; nothing when no
     * decode was counted.
     */
    void exportTo(obs::MetricSet &out) const;
};

} // namespace nisqpp

#endif // NISQPP_CORE_MESH_STATS_HH
