/**
 * @file
 * Lane-packed union-find pinned to the whole-graph-scan reference in
 * tests/support: for every distance the experiments sweep, every noise
 * channel (including erasure) and every SIMD dispatch width,
 * decodeBatch() / decodeWindowBatch() (and decodeWindow(), the engine
 * at one lane on the spacetime graph) must emit the reference's
 * corrections AND its decoder.uf.* counters — across chunk
 * boundaries, weight-0 lanes and repeated batches through one engine.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "decoders/union_find_decoder.hh"
#include "decoders/workspace.hh"
#include "noise/noise_model.hh"
#include "obs/metrics.hh"
#include "surface/error_state.hh"
#include "support/reference_union_find.hh"
#include "surface/syndrome_window.hh"

namespace nisqpp {
namespace {

/** Every dispatch width the runtime can latch. */
const simd::Width kWidths[] = {simd::Width::Scalar, simd::Width::V256,
                               simd::Width::V512};

/** RAII restore of the process-wide dispatch width. */
class WidthGuard
{
  public:
    explicit WidthGuard(simd::Width w) : before_(simd::activeWidth())
    {
        simd::setActiveWidth(w);
    }
    ~WidthGuard() { simd::setActiveWidth(before_); }

  private:
    simd::Width before_;
};

/** One spec per channel kind the noise layer offers. */
const NoiseSpec kAllChannels[] = {
    NoiseSpec::depolarizing(), NoiseSpec::dephasing(),
    NoiseSpec::biased(3.0), NoiseSpec::erasure()};

/**
 * Sample @p count syndromes of channel-generated error states. The
 * first and one middle lane are forced to weight 0 so every batch
 * carries trivially finished lanes next to active ones.
 */
std::vector<Syndrome>
sampleSyndromes(const SurfaceLattice &lat, const NoiseModel &model,
                ErrorType type, int count, Rng &rng)
{
    std::vector<Syndrome> out;
    ErrorState state(lat);
    for (int i = 0; i < count; ++i) {
        Syndrome syn(lat, type);
        if (i != 0 && i != count / 2) {
            state.clear();
            model.sample(rng, state);
            extractSyndromeInto(state, type, syn);
        }
        out.push_back(std::move(syn));
    }
    return out;
}

/**
 * The decoder's decoder.uf.* metrics must equal the reference's
 * cumulative counters, growth-round histogram included.
 */
void
expectCountersMatch(const UnionFindDecoder &dec,
                    const ReferenceUnionFind &ref,
                    const std::string &label)
{
    const ReferenceUnionFind::Counters &c = ref.counters();
    obs::MetricSet m;
    dec.exportMetrics(m);
    std::map<std::string, std::uint64_t> scalars;
    m.forEachScalar([&scalars](const std::string &name, bool,
                               std::uint64_t value) {
        scalars[name] = value;
    });
    const std::map<std::string, std::uint64_t> expected = {
        {"decoder.uf.decodes", c.decodes},
        {"decoder.uf.growth_rounds", c.growthRounds},
        {"decoder.uf.peel_flips", c.peelFlips},
        {"decoder.uf.window_decodes", c.windowDecodes}};
    EXPECT_EQ(scalars, expected) << label;

    int histograms = 0;
    m.forEachHistogram([&](const std::string &name,
                           const obs::MetricSet::HistogramEntry &e) {
        ++histograms;
        EXPECT_EQ(name, "decoder.uf.growth_rounds") << label;
        EXPECT_EQ(e.sum, c.growthRounds) << label;
        std::map<int, std::uint64_t> bins, expectedBins;
        std::uint64_t expectedOverflow = 0;
        for (std::size_t i = 0; i < e.hist.numBins(); ++i)
            if (e.hist.bin(i) != 0)
                bins[static_cast<int>(i)] = e.hist.bin(i);
        for (const auto &[rounds, n] : c.roundsHist) {
            if (static_cast<std::size_t>(rounds) < e.hist.numBins())
                expectedBins[rounds] = n;
            else
                expectedOverflow += n;
        }
        EXPECT_EQ(bins, expectedBins) << label;
        EXPECT_EQ(e.hist.overflow(), expectedOverflow) << label;
    });
    EXPECT_EQ(histograms, 1) << label;
}

/**
 * Decode @p syns one-by-one through @p ref and batched through
 * @p batched, asserting equal corrections and counters.
 */
void
expectBatchMatchesReference(UnionFindDecoder &batched,
                            ReferenceUnionFind &ref,
                            const std::vector<Syndrome> &syns,
                            const std::string &label)
{
    std::vector<std::vector<int>> expected;
    for (const Syndrome &syn : syns)
        expected.push_back(ref.decode(syn));

    std::vector<const Syndrome *> ptrs;
    for (const Syndrome &syn : syns)
        ptrs.push_back(&syn);
    TrialWorkspace ws;
    batched.decodeBatch(ptrs.data(), ptrs.size(), ws);

    ASSERT_GE(ws.laneCorrections.size(), syns.size()) << label;
    for (std::size_t i = 0; i < syns.size(); ++i)
        EXPECT_EQ(ws.laneCorrections[i].dataFlips, expected[i])
            << label << ": correction of lane " << i;
    expectCountersMatch(batched, ref, label);
}

/**
 * Decode @p windows through the reference, one at a time through
 * @p scalar and batched through @p batched: both must match it, and
 * since each decoder sees every window once, so must both counters.
 */
void
expectWindowsMatchReference(
    UnionFindDecoder &scalar, UnionFindDecoder &batched,
    const std::vector<std::unique_ptr<SyndromeWindow>> &windows,
    const std::string &label)
{
    ReferenceUnionFind ref(scalar.lattice(), scalar.type());
    TrialWorkspace sws;
    std::vector<const SyndromeWindow *> ptrs;
    std::vector<std::vector<int>> expected;
    for (const auto &win : windows) {
        expected.push_back(ref.decodeWindow(*win));
        scalar.decodeWindow(*win, sws);
        EXPECT_EQ(sws.correction.dataFlips, expected.back())
            << label << ": decodeWindow " << ptrs.size();
        EXPECT_EQ(scalar.lastGrowthRounds(), ref.lastGrowthRounds())
            << label << ": decodeWindow " << ptrs.size();
        ptrs.push_back(win.get());
    }
    expectCountersMatch(scalar, ref, label + " decodeWindow");

    TrialWorkspace ws;
    batched.decodeWindowBatch(ptrs.data(), ptrs.size(), ws);
    ASSERT_GE(ws.laneCorrections.size(), windows.size()) << label;
    for (std::size_t i = 0; i < windows.size(); ++i)
        EXPECT_EQ(ws.laneCorrections[i].dataFlips, expected[i])
            << label << ": lane " << i;
    expectCountersMatch(batched, ref, label + " decodeWindowBatch");
}

TEST(UnionFindBatch, MatchesReferenceAcrossDistancesAndChannels)
{
    Rng rng(0xbeefcafeULL);
    for (simd::Width w : kWidths) {
        WidthGuard guard(w);
        for (int d : {3, 5, 7, 9}) {
            SurfaceLattice lat(d);
            for (const NoiseSpec &spec : kAllChannels) {
                const NoiseModel model(spec, 0.08);
                for (ErrorType type : {ErrorType::Z, ErrorType::X}) {
                    if (type == ErrorType::X && !model.producesX())
                        continue;
                    ReferenceUnionFind ref(lat, type);
                    UnionFindDecoder batched(lat, type);
                    EXPECT_EQ(batched.batchWidth(), w);
                    // 2.5 chunks of the widest engine so every width
                    // exercises chunk boundaries and a ragged tail.
                    const auto syns = sampleSyndromes(
                        lat, model, type, 160, rng);
                    expectBatchMatchesReference(
                        batched, ref, syns,
                        "d=" + std::to_string(d) + " " +
                            noiseKindName(spec.kind) + " " +
                            simd::widthName(w) +
                            (type == ErrorType::Z ? " Z" : " X"));
                }
            }
        }
    }
}

TEST(UnionFindBatch, HeavySyndromesAndRepeatedBatches)
{
    // Back-to-back batches of varying sizes (including size 1 and a
    // sub-word tail) through one decoder: later batches must not see
    // earlier lanes' cluster state, and counters accumulate across
    // batches exactly as the reference's do.
    Rng rng(0x0ddba11ULL);
    for (simd::Width w : kWidths) {
        WidthGuard guard(w);
        SurfaceLattice lat(9);
        ReferenceUnionFind ref(lat, ErrorType::Z);
        UnionFindDecoder batched(lat, ErrorType::Z);
        ErrorState state(lat);
        for (int size : {67, 1, 8, 3, 129, 5}) {
            std::vector<Syndrome> syns;
            for (int i = 0; i < size; ++i) {
                Syndrome syn(lat, ErrorType::Z);
                // Heavy (p up to 30%) rounds grow clusters that
                // merge, touch the boundary and peel long chains.
                state.clear();
                NoiseModel::dephasing(0.02 + 0.28 * rng.uniform())
                    .sample(rng, state);
                extractSyndromeInto(state, ErrorType::Z, syn);
                syns.push_back(std::move(syn));
            }
            expectBatchMatchesReference(batched, ref, syns,
                                        simd::widthName(w) +
                                            std::string(" batch size ") +
                                            std::to_string(size));
        }
    }
}

TEST(UnionFindBatch, ErasureMarkedLatticeStillMatches)
{
    // The erasure channel injects uniformly random Paulis on erased
    // qubits, so its error states exercise Y components (X and Z
    // simultaneously).
    Rng rng(0x5eedULL);
    for (simd::Width w : kWidths) {
        WidthGuard guard(w);
        for (int d : {5, 9}) {
            SurfaceLattice lat(d);
            const NoiseModel model = NoiseModel::erasure(0.12);
            for (ErrorType type : {ErrorType::Z, ErrorType::X}) {
                ReferenceUnionFind ref(lat, type);
                UnionFindDecoder batched(lat, type);
                const auto syns =
                    sampleSyndromes(lat, model, type, 40, rng);
                expectBatchMatchesReference(
                    batched, ref, syns,
                    "erasure d=" + std::to_string(d));
            }
        }
    }
}

/**
 * Record a @p w noisy-round window of channel noise plus measurement
 * flips into @p win (round w is the perfect commit round).
 */
void
buildNoisyWindow(const SurfaceLattice &lat, int w,
                 const NoiseModel &model, Rng &rng, SyndromeWindow &win)
{
    win.reset();
    ErrorState state(lat);
    Syndrome syn(lat, ErrorType::Z);
    for (int t = 0; t < w; ++t) {
        model.sample(rng, state);
        extractSyndromeInto(state, ErrorType::Z, syn);
        model.flipMeasurements(rng, syn);
        win.recordRound(t, syn);
    }
    extractSyndromeInto(state, ErrorType::Z, syn);
    win.recordRound(w, syn);
}

TEST(UnionFindBatch, WindowedSpacetimeMatchesReference)
{
    // Spacetime windows with faulty measurement: decodeWindow and
    // decodeWindowBatch must match the reference window for window,
    // including windows whose detection-event sets are empty.
    Rng rng(0x77a11ULL);
    for (simd::Width w : kWidths) {
        WidthGuard guard(w);
        for (int d : {3, 5, 7}) {
            SurfaceLattice lat(d);
            const NoiseModel model = NoiseModel::dephasing(0.04, 0.03);
            UnionFindDecoder scalar(lat, ErrorType::Z);
            UnionFindDecoder batched(lat, ErrorType::Z);

            std::vector<std::unique_ptr<SyndromeWindow>> windows;
            for (int i = 0; i < 3 * d + 2; ++i) {
                auto win = std::make_unique<SyndromeWindow>(
                    lat, ErrorType::Z, d + 1);
                if (i == 0 || i == d)
                    win->reset(); // empty window: zero events
                else
                    buildNoisyWindow(lat, d, model, rng, *win);
                windows.push_back(std::move(win));
            }
            expectWindowsMatchReference(
                scalar, batched, windows,
                "window d=" + std::to_string(d) + " " +
                    simd::widthName(w));
        }
    }
}

TEST(UnionFindBatch, MixedRoundWindowsFallBackConsistently)
{
    // Windows of unequal round counts decode one at a time through
    // the base-class loop — still equal to the reference.
    Rng rng(0x2ea7ULL);
    SurfaceLattice lat(5);
    const NoiseModel model = NoiseModel::dephasing(0.05, 0.02);
    UnionFindDecoder scalar(lat, ErrorType::Z);
    UnionFindDecoder batched(lat, ErrorType::Z);

    std::vector<std::unique_ptr<SyndromeWindow>> windows;
    for (int rounds : {3, 6, 3, 4}) {
        auto win = std::make_unique<SyndromeWindow>(lat, ErrorType::Z,
                                                    rounds + 1);
        buildNoisyWindow(lat, rounds, model, rng, *win);
        windows.push_back(std::move(win));
    }
    expectWindowsMatchReference(scalar, batched, windows, "mixed-round");
}

TEST(UnionFindBatch, CorrectionClearsSyndromeHolds)
{
    // The annihilation trait the batched streaming consumer relies
    // on: applying the committed correction leaves a clear syndrome.
    Rng rng(0xc1ea2ULL);
    SurfaceLattice lat(9);
    UnionFindDecoder dec(lat, ErrorType::Z);
    ASSERT_TRUE(dec.correctionClearsSyndrome());
    TrialWorkspace ws;
    ErrorState state(lat);
    Syndrome syn(lat, ErrorType::Z);
    for (int trial = 0; trial < 200; ++trial) {
        state.clear();
        NoiseModel::dephasing(0.01 + 0.2 * rng.uniform())
            .sample(rng, state);
        extractSyndromeInto(state, ErrorType::Z, syn);
        dec.decode(syn, ws);
        ws.correction.applyTo(state, ErrorType::Z);
        extractSyndromeInto(state, ErrorType::Z, syn);
        EXPECT_EQ(syn.weight(), 0) << "trial " << trial;
    }
}

} // namespace
} // namespace nisqpp
