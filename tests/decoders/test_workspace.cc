/**
 * @file Workspace property tests: for every decoder family, decoding
 * through one long-lived TrialWorkspace (buffers dirty from *other*
 * decoders, distances and error types) must produce exactly the same
 * corrections as the allocating decode() entry point (a fresh
 * workspace per call), across lattices d = 3..11 and many random
 * syndromes. Also pins union-find decode() to the whole-graph-scan
 * reference in tests/support.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "core/mesh_decoder.hh"
#include "decoders/greedy_decoder.hh"
#include "decoders/mwpm_decoder.hh"
#include "decoders/union_find_decoder.hh"
#include "decoders/workspace.hh"
#include "support/lut_decoder.hh"
#include "support/reference_union_find.hh"
#include "surface/error_state.hh"
#include "surface/syndrome.hh"

namespace nisqpp {
namespace {

/** A random but valid syndrome: extracted from a random error state. */
Syndrome
randomSyndrome(Rng &rng, const SurfaceLattice &lat, ErrorType type,
               double p)
{
    ErrorState state(lat);
    for (int d = 0; d < lat.numData(); ++d)
        if (rng.bernoulli(p))
            state.flip(type, d);
    return extractSyndrome(state, type);
}

TEST(Workspace, UnionFindMatchesReferenceImplementation)
{
    Rng rng(0x0f4eULL);
    TrialWorkspace ws; // deliberately shared across everything below
    for (int d = 3; d <= 11; d += 2) {
        SurfaceLattice lat(d);
        for (const ErrorType type : {ErrorType::Z, ErrorType::X}) {
            UnionFindDecoder decoder(lat, type);
            ReferenceUnionFind reference(lat, type);
            for (int round = 0; round < 40; ++round) {
                const Syndrome syn =
                    randomSyndrome(rng, lat, type, 0.08);
                decoder.decode(syn, ws);
                EXPECT_EQ(ws.correction.dataFlips,
                          reference.decode(syn))
                    << "d=" << d << " round=" << round;
                EXPECT_EQ(decoder.lastGrowthRounds(),
                          reference.lastGrowthRounds())
                    << "d=" << d << " round=" << round;
            }
        }
    }
}

TEST(Workspace, ReusedWorkspaceMatchesWorkspaceFreeDecodes)
{
    Rng rng(0xab5eULL);
    TrialWorkspace ws; // stays dirty across families and distances
    for (int d = 3; d <= 9; d += 2) {
        SurfaceLattice lat(d);
        for (const ErrorType type : {ErrorType::Z, ErrorType::X}) {
            std::vector<std::unique_ptr<Decoder>> decoders;
            decoders.push_back(
                std::make_unique<UnionFindDecoder>(lat, type));
            decoders.push_back(
                std::make_unique<MwpmDecoder>(lat, type));
            decoders.push_back(
                std::make_unique<GreedyDecoder>(lat, type));
            decoders.push_back(std::make_unique<MeshDecoder>(lat, type));
            if (d == 3)
                decoders.push_back(
                    std::make_unique<LutDecoder>(lat, type));
            for (int round = 0; round < 12; ++round) {
                const Syndrome syn =
                    randomSyndrome(rng, lat, type, 0.07);
                for (auto &decoder : decoders) {
                    const Correction fresh = decoder->decode(syn);
                    decoder->decode(syn, ws);
                    EXPECT_EQ(ws.correction.dataFlips, fresh.dataFlips)
                        << decoder->name() << " d=" << d;
                }
            }
        }
    }
}

TEST(Workspace, PlainDecodeForwardsToWorkspaceOverload)
{
    // A decoder that implements only the workspace overload still
    // answers the allocating decode(syndrome) via the base class.
    class Doubler : public Decoder
    {
      public:
        using Decoder::Decoder;
        using Decoder::decode;
        void
        decode(const Syndrome &syndrome, TrialWorkspace &ws) override
        {
            ws.correction.clear();
            syndrome.forEachHot(
                [&ws](int a) { ws.correction.dataFlips.push_back(a); });
        }
        std::string name() const override { return "doubler"; }
    };

    SurfaceLattice lat(3);
    Doubler decoder(lat, ErrorType::Z);
    Syndrome syn(lat, ErrorType::Z);
    syn.set(1, true);
    syn.set(4, true);
    EXPECT_EQ(decoder.decode(syn).dataFlips, (std::vector<int>{1, 4}));
}

TEST(Workspace, CorrectionsClearTheirSyndrome)
{
    // End-to-end sanity on top of equality: a UF correction decoded
    // through a reused workspace always returns the state to the code
    // space.
    Rng rng(0xdec0deULL);
    TrialWorkspace ws;
    for (int d = 3; d <= 11; d += 4) {
        SurfaceLattice lat(d);
        UnionFindDecoder decoder(lat, ErrorType::Z);
        for (int round = 0; round < 20; ++round) {
            ErrorState state(lat);
            for (int q = 0; q < lat.numData(); ++q)
                if (rng.bernoulli(0.08))
                    state.flip(ErrorType::Z, q);
            const Syndrome syn = extractSyndrome(state, ErrorType::Z);
            decoder.decode(syn, ws);
            ws.correction.applyTo(state, ErrorType::Z);
            EXPECT_FALSE(syndromeNonzero(state, ErrorType::Z));
        }
    }
}

} // namespace
} // namespace nisqpp
