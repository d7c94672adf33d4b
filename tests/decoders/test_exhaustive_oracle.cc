/**
 * @file
 * Exhaustive small-code oracle: a distance-d code corrects every data
 * error of weight <= floor((d - 1) / 2), so a decoder that claims that
 * guarantee is checked against every such pattern, not a sample. Each
 * pattern's correction is applied and the residual classified; any
 * nonzero syndrome or logical flip is a failure. Union-find runs at
 * d = 3, 5 and 7 (98,770 weight-3 patterns per error type at d = 7),
 * MWPM at d = 3 and 5, each through decode() and decodeBatch().
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "decoders/mwpm_decoder.hh"
#include "decoders/union_find_decoder.hh"
#include "decoders/workspace.hh"
#include "surface/error_state.hh"
#include "surface/logical.hh"
#include "surface/syndrome.hh"

namespace nisqpp {
namespace {

/** Invoke @p f(pattern) for every @p w-subset of [0, n), ascending. */
template <typename F>
void
forEachPattern(int n, int w, F &&f)
{
    std::vector<int> idx(w);
    for (int i = 0; i < w; ++i)
        idx[i] = i;
    for (;;) {
        f(idx);
        int i = w - 1;
        while (i >= 0 && idx[i] == n - w + i)
            --i;
        if (i < 0)
            return;
        ++idx[i];
        for (int j = i + 1; j < w; ++j)
            idx[j] = idx[j - 1] + 1;
    }
}

std::size_t
binomial(int n, int k)
{
    std::size_t out = 1;
    for (int i = 1; i <= k; ++i)
        out = out * static_cast<std::size_t>(n - k + i) /
              static_cast<std::size_t>(i);
    return out;
}

struct OracleResult
{
    std::size_t patterns = 0;
    std::size_t decodeFailures = 0; ///< through decode()
    std::size_t batchFailures = 0;  ///< through decodeBatch()
};

/** Decode every error of weight <= @p maxWeight and count failures. */
OracleResult
runOracle(Decoder &decoder, int maxWeight)
{
    constexpr std::size_t kBatch = 512;
    const SurfaceLattice &lat = decoder.lattice();
    const ErrorType type = decoder.type();
    TrialWorkspace ws;
    ErrorState state(lat);
    OracleResult result;

    auto fails = [&](const std::vector<int> &pattern,
                     const Correction &fix) {
        state.clear();
        for (int q : pattern)
            state.flip(type, q);
        fix.applyTo(state, type);
        return classifyResidual(state, type).failed();
    };

    std::vector<std::vector<int>> pending;
    std::vector<Syndrome> syndromes;
    auto flush = [&] {
        std::vector<const Syndrome *> ptrs;
        for (const Syndrome &syn : syndromes)
            ptrs.push_back(&syn);
        decoder.decodeBatch(ptrs.data(), ptrs.size(), ws);
        for (std::size_t i = 0; i < pending.size(); ++i)
            if (fails(pending[i], ws.laneCorrections[i]))
                ++result.batchFailures;
        pending.clear();
        syndromes.clear();
    };

    auto visit = [&](const std::vector<int> &pattern) {
        ++result.patterns;
        state.clear();
        for (int q : pattern)
            state.flip(type, q);
        syndromes.push_back(extractSyndrome(state, type));
        decoder.decode(syndromes.back(), ws);
        if (fails(pattern, ws.correction))
            ++result.decodeFailures;
        pending.push_back(pattern);
        if (pending.size() == kBatch)
            flush();
    };
    for (int w = 0; w <= maxWeight; ++w)
        forEachPattern(lat.numData(), w, visit);
    if (!pending.empty())
        flush();
    return result;
}

/** Run the oracle for @p Dec at each distance in @p distances. */
template <typename Dec>
void
expectCorrectsUpToHalfDistance(std::initializer_list<int> distances)
{
    for (int d : distances) {
        SurfaceLattice lat(d);
        const int t = (d - 1) / 2;
        std::size_t expectedPatterns = 0;
        for (int w = 0; w <= t; ++w)
            expectedPatterns += binomial(lat.numData(), w);
        for (ErrorType type : {ErrorType::Z, ErrorType::X}) {
            Dec decoder(lat, type);
            const OracleResult r = runOracle(decoder, t);
            const std::string label =
                decoder.name() + " d=" + std::to_string(d) +
                (type == ErrorType::Z ? " Z" : " X");
            EXPECT_EQ(r.patterns, expectedPatterns) << label;
            EXPECT_EQ(r.decodeFailures, 0u) << label;
            EXPECT_EQ(r.batchFailures, 0u) << label;
        }
    }
}

TEST(ExhaustiveOracle, UnionFindCorrectsEveryErrorUpToHalfDistance)
{
    expectCorrectsUpToHalfDistance<UnionFindDecoder>({3, 5, 7});
}

TEST(ExhaustiveOracle, MwpmCorrectsEveryErrorUpToHalfDistance)
{
    expectCorrectsUpToHalfDistance<MwpmDecoder>({3, 5});
}

} // namespace
} // namespace nisqpp
