#include "replay.hh"

#include <sstream>

#include "decoders/path.hh"
#include "decoders/workspace.hh"
#include "noise/noise_model.hh"
#include "spans.hh"
#include "surface/logical.hh"
#include "surface/syndrome_window.hh"

namespace perfbench {

using namespace nisqpp;

namespace {

struct Labels
{
    std::uint16_t trial = internLabel("replay.trial");
    std::uint16_t sample = internLabel("noise.sample");
    std::uint16_t extract = internLabel("surface.extract");
    std::uint16_t decode = internLabel("replay.decode");
    std::uint16_t classify = internLabel("surface.classify");
    std::uint16_t graphBuild[16] = {};
    std::uint16_t blossom[16] = {};

    Labels()
    {
        for (int d = 1; d < 16; d += 2) {
            const std::string w = "decoders.mwpm.window.d" + std::to_string(d);
            graphBuild[d] = internLabel(w + ".graph_build");
            blossom[d] = internLabel(w + ".blossom");
        }
    }
};

/**
 * MwpmDecoder::decodeWindow split into its two public phases:
 * MatchingGraph::buildWindow, then the BlossomMatcher solve plus chain
 * reconstruction, appending the correction to @p out.
 */
void
splitMwpmWindow(const SurfaceLattice &lattice, const SyndromeWindow &window,
                TrialWorkspace &ws, std::vector<int> &out, const Labels &labels)
{
    out.clear();
    {
        Span span(labels.graphBuild[lattice.distance()]);
        ws.graph.buildWindow(lattice, ErrorType::Z, window);
    }
    Span span(labels.blossom[lattice.distance()]);
    const MatchingGraph &graph = ws.graph;
    const int k = graph.numNodes();
    if (k == 0)
        return;
    BlossomMatcher &matcher = ws.matcher;
    matcher.reset(2 * k);
    for (int i = 0; i < k; ++i) {
        for (int j = i + 1; j < k; ++j)
            matcher.setWeight(i, j, graph.pairWeight(i, j));
        matcher.setWeight(i, k + i, graph.boundaryWeight(i));
        for (int j = i + 1; j < k; ++j)
            matcher.setWeight(k + i, k + j, 0);
    }
    matcher.solve(ws.mate);
    for (int i = 0; i < k; ++i) {
        const int m = ws.mate[i];
        if (m == k + i)
            appendChainToBoundary(lattice, ErrorType::Z, graph.ancillaOf(i),
                                  out);
        else if (m >= 0 && m < k && m > i &&
                 graph.ancillaOf(i) != graph.ancillaOf(m))
            appendChainBetweenAncillas(lattice, ErrorType::Z,
                                       graph.ancillaOf(i), graph.ancillaOf(m),
                                       out);
    }
}

CellOutcome
replaySpec(const ReplaySpec &spec, std::uint64_t seed, std::size_t trials,
           const Labels &labels, ReplayOutcome &acc)
{
    const SurfaceLattice lattice(spec.distance);
    auto decoder = familyFactory(spec.family)(lattice, ErrorType::Z);
    const bool windowed = spec.windowRounds > 0;
    const NoiseModel model =
        NoiseModel::dephasing(spec.p, windowed ? spec.p : 0.0);
    Rng rng(seed);
    ErrorState state(lattice);
    Syndrome syndrome(lattice, ErrorType::Z);
    SyndromeWindow window(lattice, ErrorType::Z, spec.windowRounds + 1);
    TrialWorkspace ws, splitWs;
    std::vector<int> splitFlips;
    const bool clears = decoder->correctionClearsSyndrome();
    const bool split = windowed && spec.family == "mwpm";
    std::size_t residual = 0, splitMismatch = 0;

    auto measure = [&](bool noisyReadout) {
        {
            Span span(labels.extract);
            extractSyndromeInto(state, ErrorType::Z, syndrome);
        }
        if (noisyReadout)
            model.flipMeasurements(rng, syndrome);
        acc.defects += static_cast<std::uint64_t>(syndrome.weight());
        ++acc.syndromes;
    };

    // Windows cost w + 1 rounds of sampling plus a spacetime decode.
    const std::size_t count = windowed ? trials / 4 : trials;
    for (std::size_t t = 0; t < count; ++t) {
        Span trialSpan(labels.trial);
        state.clear();
        if (windowed) {
            window.reset();
            for (int r = 0; r < spec.windowRounds; ++r) {
                {
                    Span span(labels.sample);
                    model.sample(rng, state);
                }
                measure(true);
                window.recordRound(r, syndrome);
            }
            measure(false); // the perfect commit round
            window.recordRound(spec.windowRounds, syndrome);
            {
                Span span(labels.decode);
                decoder->decodeWindow(window, ws);
            }
            if (split) {
                splitMwpmWindow(lattice, window, splitWs, splitFlips, labels);
                if (splitFlips != ws.correction.dataFlips)
                    ++splitMismatch;
            }
        } else {
            {
                Span span(labels.sample);
                model.sample(rng, state);
            }
            measure(false);
            Span span(labels.decode);
            decoder->decode(syndrome, ws);
        }
        acc.flips += static_cast<std::uint64_t>(state.weight(ErrorType::Z));
        ws.correction.applyTo(state, ErrorType::Z);
        FailureReport report{};
        {
            Span span(labels.classify);
            report = classifyResidual(state, ErrorType::Z);
        }
        if (clears && report.syndromeNonzero)
            ++residual;
    }
    acc.trials += count;

    CellOutcome c;
    std::ostringstream label;
    label << "replay/" << spec.family << "/d" << spec.distance
          << (windowed ? "/window" : "");
    c.label = label.str();
    std::ostringstream why;
    if (residual)
        why << residual << " corrections left a residual syndrome; ";
    if (splitMismatch)
        why << splitMismatch
            << " graph-build + blossom splits differ from MwpmDecoder";
    c.violation = why.str();
    return c;
}

} // namespace

ReplayOutcome
runReplay(const std::vector<ReplaySpec> &specs, std::uint64_t seed,
          std::size_t trials)
{
    const Labels labels;
    ReplayOutcome out;
    std::uint64_t s = seed;
    for (const ReplaySpec &spec : specs) {
        s = fnvMix(s, static_cast<std::uint64_t>(spec.distance));
        out.groups.push_back(replaySpec(spec, s, trials, labels, out));
    }
    return out;
}

} // namespace perfbench
