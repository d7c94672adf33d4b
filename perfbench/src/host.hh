/**
 * @file
 * Host fingerprint and process resource probes for benchmark results.
 */

#ifndef PERFBENCH_HOST_HH
#define PERFBENCH_HOST_HH

#include <string>

namespace perfbench {

/**
 * JSON string literal of @p s: quotes and backslashes are escaped,
 * control characters dropped.
 */
std::string quoted(const std::string &s);

/**
 * The host fingerprint as a JSON object: CPU model (CPUID brand
 * string), hardware threads, detected and active SIMD dispatch widths,
 * compiler, build type, and the revision strings passed in by run.py.
 */
std::string hostFingerprintJson(const std::string &gitRev,
                                const std::string &srcHash);

/** Process user + system CPU seconds so far (all threads). */
double processCpuSeconds();

/** Peak resident set size of this program image, in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_HOST_HH
