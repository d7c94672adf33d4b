/**
 * @file
 * Telemetry of the streaming decode pipeline: latency percentiles and
 * backlog/queue-depth trajectory samples (the measured counterpart of
 * the paper's Fig. 5 backlog staircase and Fig. 6 runtime blowup).
 */

#ifndef NISQPP_STREAM_TELEMETRY_HH
#define NISQPP_STREAM_TELEMETRY_HH

#include <cstddef>

namespace nisqpp {

/** Latency distribution summary (nanoseconds). */
struct LatencyPercentiles
{
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/** One sampled point of the backlog/queue-depth trajectory. */
struct BacklogSample
{
    std::size_t round = 0;       ///< producer round index
    std::size_t backlogRounds = 0; ///< produced - completed at sample
    std::size_t queueDepth = 0;  ///< fast-ring depth at sample
};

} // namespace nisqpp

#endif // NISQPP_STREAM_TELEMETRY_HH
