/**
 * @file Equivalence property tests of the word-packed substrate: the
 * packed ErrorState / Syndrome / extractSyndrome / crossingParity must
 * produce bit-identical results to retained per-element reference
 * implementations (and extraction to the gate-level Fig. 3 circuit),
 * across lattices d = 3..11 and many random seeds. These tests are the
 * contract that lets the hot paths use word operations at all.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "support/stabilizer_circuit.hh"
#include "surface/error_state.hh"
#include "surface/lattice.hh"
#include "surface/logical.hh"
#include "surface/syndrome.hh"

namespace nisqpp {
namespace {

/** Byte-per-qubit mirror of an ErrorState, updated in lockstep. */
struct ReferenceState
{
    std::vector<char> x, z;

    explicit ReferenceState(int n) : x(n, 0), z(n, 0) {}
};

/**
 * Per-ancilla neighbor-loop parity over the error bits, exactly the
 * pre-packed-substrate algorithm extractSyndrome() is pinned against.
 */
Syndrome
extractSyndromeReference(const ErrorState &state, ErrorType type)
{
    const SurfaceLattice &lat = state.lattice();
    Syndrome syn(lat, type);
    for (int a = 0; a < lat.numAncilla(type); ++a) {
        char parity = 0;
        for (int d : lat.ancillaDataNeighbors(type, a))
            parity ^= static_cast<char>(state.has(type, d));
        syn.set(a, parity);
    }
    return syn;
}

void
randomizeState(Rng &rng, ErrorState &state, ReferenceState &ref,
               double p)
{
    const int n = state.lattice().numData();
    for (int d = 0; d < n; ++d) {
        if (rng.bernoulli(p)) {
            state.flip(ErrorType::X, d);
            ref.x[d] ^= 1;
        }
        if (rng.bernoulli(p)) {
            state.flip(ErrorType::Z, d);
            ref.z[d] ^= 1;
        }
    }
}

TEST(PackedEquivalence, ErrorStateMatchesByteVectors)
{
    Rng rng(0xe007ULL);
    for (int d = 3; d <= 11; d += 2) {
        SurfaceLattice lat(d);
        ErrorState state(lat);
        ReferenceState ref(lat.numData());
        for (int round = 0; round < 20; ++round) {
            randomizeState(rng, state, ref, 0.15);
            int wx = 0, wz = 0, wany = 0;
            for (int q = 0; q < lat.numData(); ++q) {
                EXPECT_EQ(state.has(ErrorType::X, q),
                          static_cast<bool>(ref.x[q]));
                EXPECT_EQ(state.has(ErrorType::Z, q),
                          static_cast<bool>(ref.z[q]));
                EXPECT_EQ(state.at(q), fromXZ(ref.x[q], ref.z[q]));
                wx += ref.x[q];
                wz += ref.z[q];
                wany += ref.x[q] | ref.z[q];
            }
            EXPECT_EQ(state.weight(ErrorType::X), wx);
            EXPECT_EQ(state.weight(ErrorType::Z), wz);
            EXPECT_EQ(state.weight(), wany);
        }
    }
}

TEST(PackedEquivalence, ComposeMatchesByteXor)
{
    Rng rng(0xc0deULL);
    for (int d = 3; d <= 9; d += 2) {
        SurfaceLattice lat(d);
        ErrorState a(lat), b(lat);
        ReferenceState ra(lat.numData()), rb(lat.numData());
        randomizeState(rng, a, ra, 0.2);
        randomizeState(rng, b, rb, 0.2);
        a.compose(b);
        for (int q = 0; q < lat.numData(); ++q) {
            EXPECT_EQ(a.has(ErrorType::X, q),
                      static_cast<bool>(ra.x[q] ^ rb.x[q]));
            EXPECT_EQ(a.has(ErrorType::Z, q),
                      static_cast<bool>(ra.z[q] ^ rb.z[q]));
        }
    }
}

TEST(PackedEquivalence, ExtractionMatchesReferenceAcrossLattices)
{
    Rng rng(0x5eedULL);
    for (int d = 3; d <= 11; ++d) {
        SurfaceLattice lat(d);
        ErrorState state(lat);
        ReferenceState ref(lat.numData());
        Syndrome scratchZ(lat, ErrorType::Z);
        Syndrome scratchX(lat, ErrorType::X);
        for (int round = 0; round < 25; ++round) {
            randomizeState(rng, state, ref, 0.1);
            for (const ErrorType type : {ErrorType::Z, ErrorType::X}) {
                const Syndrome packed = extractSyndrome(state, type);
                const Syndrome reference =
                    extractSyndromeReference(state, type);
                EXPECT_EQ(packed, reference);

                Syndrome &into = type == ErrorType::Z ? scratchZ
                                                      : scratchX;
                extractSyndromeInto(state, type, into);
                EXPECT_EQ(into, reference);

                EXPECT_EQ(syndromeNonzero(state, type),
                          reference.weight() != 0);
            }
        }
    }
}

TEST(PackedEquivalence, CrossingParityMatchesSupportLoop)
{
    Rng rng(0x10f1ULL);
    for (int d = 3; d <= 11; d += 2) {
        SurfaceLattice lat(d);
        ErrorState state(lat);
        ReferenceState ref(lat.numData());
        for (int round = 0; round < 20; ++round) {
            randomizeState(rng, state, ref, 0.2);
            for (const ErrorType type : {ErrorType::Z, ErrorType::X}) {
                char parity = 0;
                for (int q : lat.logicalDetectorSupport(type))
                    parity ^= static_cast<char>(state.has(type, q));
                EXPECT_EQ(crossingParity(state, type),
                          static_cast<bool>(parity));
            }
        }
    }
}

TEST(PackedEquivalence, CircuitExtractionAgreesWithDirect)
{
    Rng rng(0xf00dULL);
    for (int d = 3; d <= 9; d += 2) {
        SurfaceLattice lat(d);
        StabilizerCircuit circuit(lat);
        ErrorState state(lat);
        ReferenceState ref(lat.numData());
        for (int round = 0; round < 20; ++round) {
            randomizeState(rng, state, ref, 0.12);
            for (const ErrorType type : {ErrorType::Z, ErrorType::X})
                EXPECT_EQ(circuit.extract(state, type),
                          extractSyndrome(state, type));
        }
    }
}

} // namespace
} // namespace nisqpp
