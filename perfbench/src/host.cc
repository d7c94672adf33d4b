#include "host.hh"

#include <sys/resource.h>

#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/simd.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    unsigned int maxExt = __get_cpuid_max(0x80000000u, nullptr);
    if (maxExt >= 0x80000004u) {
        for (unsigned int i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto first = s.find_first_not_of(' ');
        const auto last = s.find_last_not_of(' ');
        if (first != std::string::npos)
            return s.substr(first, last - first + 1);
    }
#endif
    return "unknown";
}

} // namespace

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
hostFingerprintJson(const std::string &gitRev, const std::string &srcHash)
{
    std::ostringstream os;
    os << "{\"cpu\":" << quoted(cpuModel())
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"simd_detected\":"
       << quoted(nisqpp::simd::widthName(nisqpp::simd::detectWidth()))
       << ",\"simd_active\":"
       << quoted(nisqpp::simd::widthName(nisqpp::simd::activeWidth()))
       << ",\"compiler\":" << quoted(PERFBENCH_COMPILER)
       << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
       << ",\"git_rev\":" << quoted(gitRev)
       << ",\"src_sha256\":" << quoted(srcHash) << "}";
    return os.str();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double
peakRssMb()
{
    // VmHWM is the peak of this program image only. ru_maxrss is not:
    // it keeps the high-water mark of the process image replaced by
    // exec (here the Python launcher), so it is only the fallback.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

} // namespace perfbench
