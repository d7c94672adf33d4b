#include "common/simd.hh"

namespace nisqpp {
namespace simd {

namespace {

Width &
activeSlot()
{
    static Width w = detectWidth();
    return w;
}

} // namespace

Width
detectWidth()
{
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
    if (__builtin_cpu_supports("avx512f"))
        return Width::V512;
    if (__builtin_cpu_supports("avx2"))
        return Width::V256;
    return Width::Scalar;
#else
    // Non-x86 (or non-GNU) builds: the vector types still compile but
    // there is no cheap probe for native backing; default to the
    // 256-bit word, which lowers to NEON / scalar pairs acceptably.
    return Width::V256;
#endif
}

Width
activeWidth()
{
    return activeSlot();
}

void
setActiveWidth(Width w)
{
    activeSlot() = w;
}

const char *
widthName(Width w)
{
    switch (w) {
      case Width::Scalar:
        return "scalar";
      case Width::V256:
        return "v256";
      case Width::V512:
        return "v512";
    }
    return "scalar";
}

} // namespace simd
} // namespace nisqpp
