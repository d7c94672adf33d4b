/**
 * @file
 * Layer replay: sampled trials driven one layer call at a time through
 * the library's public functions (NoiseModel::sample ->
 * extractSyndromeInto -> Decoder::decode / decodeWindow ->
 * classifyResidual), each call inside its own span. It also checks, on
 * any seed, that decoders claiming correctionClearsSyndrome() leave no
 * residual syndrome, and for MWPM windows that a graph-build + blossom
 * split of the decode reproduces MwpmDecoder's correction exactly.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hh"

namespace perfbench {

struct ReplayOutcome
{
    std::uint64_t trials = 0;
    std::uint64_t flips = 0;     ///< sampled data errors, summed
    std::uint64_t syndromes = 0; ///< extracted syndromes
    std::uint64_t defects = 0;   ///< hot ancillas over those syndromes
    /** One checked group per spec; its violation, empty when it held. */
    std::vector<CellOutcome> groups;
};

/** Replay @p trials trials of every spec, seeded from @p seed. */
ReplayOutcome runReplay(const std::vector<ReplaySpec> &specs,
                        std::uint64_t seed, std::size_t trials);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
