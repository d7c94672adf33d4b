/**
 * @file Shared assertion of the simulator tests: two Monte Carlo
 * results agree in every aggregate field, bit for bit.
 */

#ifndef NISQPP_TESTS_SIM_AGGREGATES_HH
#define NISQPP_TESTS_SIM_AGGREGATES_HH

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/monte_carlo.hh"

namespace nisqpp {

/** Every counter, gauge and histogram of @p metrics as JSON text. */
inline std::string
metricsJson(const obs::MetricSet &metrics)
{
    std::ostringstream os;
    metrics.writeScalarsJson(os, false);
    metrics.writeScalarsJson(os, true);
    metrics.writeHistogramsJson(os);
    return os.str();
}

/** Every aggregate field, including FP accumulations and metrics. */
inline void
expectSameAggregates(const MonteCarloResult &a, const MonteCarloResult &b)
{
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.syndromeResidualFailures, b.syndromeResidualFailures);
    EXPECT_DOUBLE_EQ(a.logicalErrorRate, b.logicalErrorRate);
    EXPECT_EQ(a.cycles.count(), b.cycles.count());
    EXPECT_DOUBLE_EQ(a.cycles.mean(), b.cycles.mean());
    EXPECT_DOUBLE_EQ(a.cycles.variance(), b.cycles.variance());
    EXPECT_DOUBLE_EQ(a.cycles.max(), b.cycles.max());
    ASSERT_EQ(a.cycleHistogram.numBins(), b.cycleHistogram.numBins());
    EXPECT_EQ(a.cycleHistogram.total(), b.cycleHistogram.total());
    for (std::size_t bin = 0; bin < a.cycleHistogram.numBins(); ++bin)
        EXPECT_EQ(a.cycleHistogram.bin(bin), b.cycleHistogram.bin(bin));
    EXPECT_EQ(metricsJson(a.metrics), metricsJson(b.metrics));
}

} // namespace nisqpp

#endif // NISQPP_TESTS_SIM_AGGREGATES_HH
