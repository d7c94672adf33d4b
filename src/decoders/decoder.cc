#include "decoders/decoder.hh"

#include <utility>

#include "common/logging.hh"
#include "decoders/workspace.hh"

namespace nisqpp {

Correction
Decoder::decode(const Syndrome &syndrome)
{
    TrialWorkspace ws;
    decode(syndrome, ws);
    return std::move(ws.correction);
}

void
Decoder::decodeWindow(const SyndromeWindow &window, TrialWorkspace &ws)
{
    // Lazily built once: the decoder's lattice and type are fixed, so
    // the scratch can never go stale (majorityVote still checks the
    // window against the scratch's family).
    if (!windowScratch_)
        windowScratch_ =
            std::make_unique<Syndrome>(*lattice_, type_);
    window.majorityVote(*windowScratch_);
    decode(*windowScratch_, ws);
}

void
Decoder::decodeWindowBatch(const SyndromeWindow *const *windows,
                           std::size_t count, TrialWorkspace &ws)
{
    if (ws.laneCorrections.size() < count)
        ws.laneCorrections.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        decodeWindow(*windows[i], ws);
        // Swap instead of copy: both buffers keep their high-water
        // capacity across batches (mirrors decodeBatch).
        std::swap(ws.correction.dataFlips,
                  ws.laneCorrections[i].dataFlips);
    }
}

void
Decoder::decodeFeed(LaneFeed &feed, int lanes, TrialWorkspace &ws)
{
    require(lanes == 1, "Decoder::decodeFeed: lanes exceed lanes()");
    while (const Syndrome *syn = feed.next(0)) {
        decode(*syn, ws);
        feed.done(0, ws.correction, meshStats(0));
    }
}

void
Decoder::decodeBatch(const Syndrome *const *syndromes, std::size_t count,
                     TrialWorkspace &ws)
{
    if (ws.laneCorrections.size() < count)
        ws.laneCorrections.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        decode(*syndromes[i], ws);
        // Swap instead of copy: both buffers keep their high-water
        // capacity across the thousands of batches in a shard.
        std::swap(ws.correction.dataFlips,
                  ws.laneCorrections[i].dataFlips);
    }
}

} // namespace nisqpp
