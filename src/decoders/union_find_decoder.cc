#include "decoders/union_find_decoder.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hh"
#include "decoders/workspace.hh"
#include "obs/metrics.hh"


namespace nisqpp {

namespace {

/** Path-halving find on one lane's parent slice. */
inline int
findRoot(int *parent, int v)
{
    while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
    }
    return v;
}

} // namespace

void
UnionFindDecoder::appendSpatialEdges(const SurfaceLattice &lattice,
                                     ErrorType type, int base,
                                     Graph &graph)
{
    // Ancilla-ancilla edges: one per interior data qubit (it has exactly
    // two detecting ancillas); ancilla-boundary edges: one per boundary
    // data qubit, with a private virtual boundary vertex.
    for (int d = 0; d < lattice.numData(); ++d) {
        const auto &ancs = lattice.dataAncillaNeighbors(type, d);
        if (ancs.size() == 2) {
            const int id = static_cast<int>(graph.edges.size());
            graph.edges.push_back({base + ancs[0], base + ancs[1], d});
            graph.incident[base + ancs[0]].push_back(id);
            graph.incident[base + ancs[1]].push_back(id);
        } else if (ancs.size() == 1) {
            const int bv = graph.numVertices++;
            graph.incident.emplace_back();
            const int id = static_cast<int>(graph.edges.size());
            graph.edges.push_back({base + ancs[0], bv, d});
            graph.incident[base + ancs[0]].push_back(id);
            graph.incident[bv].push_back(id);
        } else {
            panic("UnionFindDecoder: data qubit with no detecting "
                  "ancilla");
        }
    }
}

UnionFindDecoder::UnionFindDecoder(const SurfaceLattice &lattice,
                                   ErrorType type)
    : Decoder(lattice, type), width_(simd::activeWidth())
{
    const int na = lattice.numAncilla(type);
    graph_.numAncillaVertices = na;
    graph_.numVertices = na;
    graph_.incident.resize(na);
    appendSpatialEdges(lattice, type, 0, graph_);
}

const UnionFindDecoder::Graph &
UnionFindDecoder::windowGraph(int rounds)
{
    if (windowGraphRounds_ == rounds)
        return windowGraph_;

    // Spacetime layout: vertex (t, a) = t * na + a for the real
    // ancilla slots of all rounds, virtual boundary vertices after.
    const SurfaceLattice &lat = lattice();
    const int na = lat.numAncilla(type());
    Graph g;
    g.numAncillaVertices = rounds * na;
    g.numVertices = rounds * na;
    g.incident.assign(g.numVertices, {});

    for (int t = 0; t < rounds; ++t) {
        const int base = t * na;
        // Spatial edges of round t (the 2D construction, offset).
        appendSpatialEdges(lat, type(), base, g);
        // Time-like edges to round t+1: a measurement flip at (t, a)
        // fires events in rounds t and t+1; the edge carries no data
        // qubit.
        if (t + 1 < rounds)
            for (int a = 0; a < na; ++a) {
                const int id = static_cast<int>(g.edges.size());
                g.edges.push_back({base + a, base + na + a, -1});
                g.incident[base + a].push_back(id);
                g.incident[base + na + a].push_back(id);
            }
    }

    windowGraph_ = std::move(g);
    windowGraphRounds_ = rounds;
    return windowGraph_;
}

void
UnionFindDecoder::noteDecode(const Correction &corr)
{
    ++decodes_;
    growthRoundsTotal_ += static_cast<std::uint64_t>(lastRounds_);
    roundsHist_.add(static_cast<std::size_t>(lastRounds_));
    peelFlipsTotal_ += corr.dataFlips.size();
}

void
UnionFindDecoder::exportMetrics(obs::MetricSet &out) const
{
    if (decodes_ == 0)
        return;
    out.add("decoder.uf.decodes", decodes_);
    out.add("decoder.uf.window_decodes", windowDecodes_);
    out.add("decoder.uf.growth_rounds", growthRoundsTotal_);
    out.add("decoder.uf.peel_flips", peelFlipsTotal_);
    out.mergeHistogram("decoder.uf.growth_rounds", roundsHist_,
                       growthRoundsTotal_);
}

void
UnionFindDecoder::decode(const Syndrome &syndrome, TrialWorkspace &ws)
{
    ws.correction.clear();
    lastRounds_ = 0;
    if (syndrome.weight() == 0) {
        noteDecode(ws.correction);
        return;
    }
    ws.ufSeeds.clear();
    syndrome.forEachHot(
        [&ws](int a) { ws.ufSeeds.push_back(a); });
    decodeOnGraph(graph_, ws.ufSeeds, 4 * lattice().gridSize() + 8, ws);
    noteDecode(ws.correction);
}

void
UnionFindDecoder::decodeWindow(const SyndromeWindow &window,
                               TrialWorkspace &ws)
{
    ws.correction.clear();
    lastRounds_ = 0;
    ++windowDecodes_;
    if (window.eventWeight() == 0) {
        noteDecode(ws.correction);
        return;
    }
    const int na = window.numAncilla();
    ws.ufSeeds.clear();
    window.forEachEvent([&ws, na](int t, int a) {
        ws.ufSeeds.push_back(t * na + a);
    });
    decodeOnGraph(windowGraph(window.rounds()), ws.ufSeeds,
                  4 * (lattice().gridSize() + window.rounds()) + 8, ws);
    noteDecode(ws.correction);
}

void
UnionFindDecoder::decodeBatch(const Syndrome *const *syndromes,
                              std::size_t count, TrialWorkspace &ws)
{
    if (count == 0)
        return;
    if (ws.laneCorrections.size() < count)
        ws.laneCorrections.resize(count);
    for (std::size_t i = 0; i < count; ++i)
        ws.laneCorrections[i].clear();
    switch (width_) {
      case simd::Width::Scalar:
        runBatch(engine64_, syndromes, count, ws);
        break;
      case simd::Width::V256:
        runBatch(engine256_, syndromes, count, ws);
        break;
      case simd::Width::V512:
        runBatch(engine512_, syndromes, count, ws);
        break;
    }
}

void
UnionFindDecoder::decodeWindowBatch(const SyndromeWindow *const *windows,
                                    std::size_t count,
                                    TrialWorkspace &ws)
{
    if (count == 0)
        return;
    // The lane-packed engine shares one spacetime graph per chunk;
    // mixed round counts (no caller produces them today) take the
    // scalar fallback rather than juggling graphs mid-chunk.
    for (std::size_t i = 1; i < count; ++i)
        if (windows[i]->rounds() != windows[0]->rounds()) {
            Decoder::decodeWindowBatch(windows, count, ws);
            return;
        }
    if (ws.laneCorrections.size() < count)
        ws.laneCorrections.resize(count);
    for (std::size_t i = 0; i < count; ++i)
        ws.laneCorrections[i].clear();
    switch (width_) {
      case simd::Width::Scalar:
        runWindowBatch(engine64_, windows, count, ws);
        break;
      case simd::Width::V256:
        runWindowBatch(engine256_, windows, count, ws);
        break;
      case simd::Width::V512:
        runWindowBatch(engine512_, windows, count, ws);
        break;
    }
}

template <typename W>
void
UnionFindDecoder::runBatch(BatchEngine<W> &e,
                           const Syndrome *const *syndromes,
                           std::size_t count, TrialWorkspace &ws)
{
    const int growthBound = 4 * lattice().gridSize() + 8;
    for (std::size_t base = 0; base < count;
         base += static_cast<std::size_t>(e.kLanes)) {
        const std::size_t lanes =
            std::min(static_cast<std::size_t>(e.kLanes), count - base);
        ensureEngine(e, graph_, 0, lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            auto &cand = e.candidates[l];
            cand.clear();
            syndromes[base + l]->forEachHot(
                [&cand](int a) { cand.push_back(a); });
        }
        runChunk(graph_, growthBound, e, base, lanes, ws);
    }
}

template <typename W>
void
UnionFindDecoder::runWindowBatch(BatchEngine<W> &e,
                                 const SyndromeWindow *const *windows,
                                 std::size_t count, TrialWorkspace &ws)
{
    const int rounds = windows[0]->rounds();
    const int na = windows[0]->numAncilla();
    const Graph &graph = windowGraph(rounds);
    const int growthBound = 4 * (lattice().gridSize() + rounds) + 8;
    windowDecodes_ += count;
    for (std::size_t base = 0; base < count;
         base += static_cast<std::size_t>(e.kLanes)) {
        const std::size_t lanes =
            std::min(static_cast<std::size_t>(e.kLanes), count - base);
        ensureEngine(e, graph, rounds, lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            auto &cand = e.candidates[l];
            cand.clear();
            windows[base + l]->forEachEvent([&cand, na](int t, int a) {
                cand.push_back(t * na + a);
            });
        }
        runChunk(graph, growthBound, e, base, lanes, ws);
    }
}

template <typename W>
void
UnionFindDecoder::ensureEngine(BatchEngine<W> &e, const Graph &graph,
                               int graphRounds, std::size_t lanes)
{
    const int numVertices = graph.numVertices;
    const int numEdges = static_cast<int>(graph.edges.size());
    if (e.graphKey != &graph || e.graphRounds != graphRounds ||
        e.numVertices != numVertices || e.numEdges != numEdges) {
        e.graphKey = &graph;
        e.graphRounds = graphRounds;
        e.numVertices = numVertices;
        e.numEdges = numEdges;
        e.act.assign(numVertices, W{});
        e.actMark.assign(numVertices, 0);
        e.touched.clear();
        e.edgeMark.assign(numEdges, 0);
        e.dirtyEdges.clear();
        e.planeMark.assign(numEdges, 0);
        e.planeDirty.clear();
        // The planes are rewound from planeDirty at the end of every
        // chunk, so this full clear happens once per graph, not once
        // per chunk.
        e.s1.assign(numEdges, W{});
        e.s2.assign(numEdges, W{});
        e.hot.assign(numVertices, 0);
        e.visited.assign(numVertices, 0);
        e.parentEdge.assign(numVertices, -1);
        e.eraseWords = (numVertices + 63) / 64;
        e.iotaTemplate.resize(numVertices);
        for (int v = 0; v < numVertices; ++v)
            e.iotaTemplate[v] = v;
        e.metaTemplate.assign(numVertices, 0);
        std::fill(e.metaTemplate.begin() + graph.numAncillaVertices,
                  e.metaTemplate.end(), 2);
        e.erasure.reserve(numVertices);
        e.bfsOrder.reserve(numVertices);
        e.grownMark.assign(numEdges, 0);
        // Flatten the incident lists once per graph (CSR) so the
        // gather and peel BFS read one contiguous array instead of
        // chasing a vector per vertex.
        e.incOff.resize(numVertices + 1);
        e.incOff[0] = 0;
        for (int v = 0; v < numVertices; ++v)
            e.incOff[v + 1] =
                e.incOff[v] + static_cast<int>(graph.incident[v].size());
        e.incEdges.resize(e.incOff[numVertices]);
        for (int v = 0; v < numVertices; ++v)
            std::copy(graph.incident[v].begin(), graph.incident[v].end(),
                      e.incEdges.begin() + e.incOff[v]);
        e.lanesReady = 0;
        e.candidates.resize(e.kLanes);
        e.grown.resize(e.kLanes);
        e.grownDone.assign(e.kLanes, 0);
        e.roots.resize(e.kLanes);
        e.rounds.assign(e.kLanes, 0);
        e.finished.assign(e.kLanes, 0);
    }
    if (static_cast<int>(lanes) > e.lanesReady) {
        const std::size_t slots =
            lanes * static_cast<std::size_t>(numVertices);
        e.parent.resize(slots);
        e.meta.resize(slots);
        e.memberNext.resize(slots);
        e.memberTail.resize(slots);
        e.laneErasure.assign(
            lanes * static_cast<std::size_t>(e.eraseWords), 0);
        // Establish the between-trials invariant for the new lanes
        // (bulk template copies: decoders are shard-private, so this
        // runs once per shard and must stay cheap); runChunk's
        // touched-only cleanup maintains the invariant from here on.
        for (int l = e.lanesReady; l < static_cast<int>(lanes); ++l) {
            const std::size_t off =
                static_cast<std::size_t>(l) * numVertices;
            std::memcpy(e.parent.data() + off, e.iotaTemplate.data(),
                        numVertices * sizeof(int));
            std::memcpy(e.memberTail.data() + off,
                        e.iotaTemplate.data(),
                        numVertices * sizeof(int));
            std::memcpy(e.meta.data() + off, e.metaTemplate.data(),
                        numVertices);
            std::memset(e.memberNext.data() + off, 0xff,
                        numVertices * sizeof(int));
            e.candidates[l].reserve(48);
            e.grown[l].reserve(32);
            e.roots[l].reserve(48);
        }
        e.lanesReady = static_cast<int>(lanes);
    }
}

template <typename W>
void
UnionFindDecoder::runChunk(const Graph &graph, int growthBound,
                           BatchEngine<W> &e, std::size_t base,
                           std::size_t lanes, TrialWorkspace &ws)
{
    const auto &edges = graph.edges;
    const int *incOff = e.incOff.data();
    const int *incEdges = e.incEdges.data();
    const int numAncillaVertices = graph.numAncillaVertices;
    const std::size_t V = static_cast<std::size_t>(e.numVertices);

    // Seed parities and per-lane live root lists; weight-0 lanes
    // finish before the first round. meta bit0 = parity, bit1 =
    // boundary contact, bit2 = listed in e.roots[l], bits 3+ = rank.
    bool anyLive = false;
    for (std::size_t l = 0; l < lanes; ++l) {
        e.rounds[l] = 0;
        const auto &cand = e.candidates[l];
        e.finished[l] = cand.empty() ? 1 : 0;
        if (cand.empty())
            continue;
        anyLive = true;
        unsigned char *metaL = e.meta.data() + l * V;
        std::uint64_t *ebL = e.laneErasure.data() + l * e.eraseWords;
        for (int s : cand) {
            metaL[s] = 5; // parity set, listed; seeds are ancillas
            ebL[s >> 6] |= std::uint64_t{1} << (s & 63);
        }
        e.roots[l].assign(cand.begin(), cand.end());
    }

    // Cluster growth, lane-parallel. Each round: (a) every live lane
    // walks its live roots — clusters splice member lists on union, so
    // the odd non-boundary clusters' members are enumerated directly,
    // with no per-round candidate re-scan and no root lookups — and
    // marks those vertices in the shared `act` plane; (b) ONE
    // word-parallel sweep over the edges incident to this round's
    // active vertices (no other edge's support can change) saturates
    // support for all lanes at once — new1 = s1 | act, new2 =
    // s2 | (s1 & act) | (act_u & act_v) reproduces the scalar
    // half-edge increments including both-endpoint same-round
    // completion and saturation at 2; (c) lanes whose planes changed
    // (delta) count a growth round and union their newly grown edges
    // in ascending edge order — the cluster partition, parities,
    // boundary flags and support are union-order-independent, so the
    // divergence from the scalar decoder's grown order is
    // unobservable.
    //
    // Rank-based union can hand the merged cluster to a previously
    // virgin (unlisted, rank-0) vertex when both sides have rank 0, so
    // each union appends the winner to the lane's root list if its
    // meta listed bit is clear; merged-away roots are compacted out
    // lazily.
    while (anyLive) {
        for (std::size_t l = 0; l < lanes; ++l) {
            if (e.finished[l])
                continue;
            const int el = static_cast<int>(l) / 64;
            const std::uint64_t bit = std::uint64_t{1} << (l % 64);
            const int *parentL = e.parent.data() + l * V;
            const unsigned char *metaL = e.meta.data() + l * V;
            const int *memberNextL = e.memberNext.data() + l * V;
            auto &roots = e.roots[l];
            std::size_t keep = 0;
            for (int r : roots) {
                if (parentL[r] != r)
                    continue; // merged away: drop from the list
                roots[keep++] = r;
                if ((metaL[r] & 3) != 1)
                    continue; // even or boundary-tied: not growing
                for (int v = r; v >= 0; v = memberNextL[v]) {
                    if (!e.actMark[v]) {
                        e.actMark[v] = 1;
                        e.touched.push_back(v);
                    }
                    simd::orElem(e.act[v], el, bit);
                }
            }
            roots.resize(keep);
        }

        W deltaAny{};
        if (!e.touched.empty()) {
            // Gather the edges bordering any active vertex; only they
            // can change support this round. Sorting the shared list
            // once makes every lane's grown list land pre-sorted in
            // the ascending edge order the equivalence argument is
            // stated for (cheaper than a per-lane sort).
            for (int v : e.touched)
                for (int k = incOff[v]; k < incOff[v + 1]; ++k) {
                    const int ed = incEdges[k];
                    if (!e.edgeMark[ed]) {
                        e.edgeMark[ed] = 1;
                        e.dirtyEdges.push_back(ed);
                    }
                }
            std::sort(e.dirtyEdges.begin(), e.dirtyEdges.end());
            for (int ed : e.dirtyEdges) {
                e.edgeMark[ed] = 0;
                const W au = e.act[edges[ed].u];
                const W av = e.act[edges[ed].v];
                const W a = au | av; // nonzero: ed borders a touched v
                const W s1v = e.s1[ed];
                const W s2v = e.s2[ed];
                const W n1 = s1v | a;
                const W n2 = s2v | (s1v & a) | (au & av);
                const W grownNew = n2 & ~s2v;
                deltaAny |= (n1 ^ s1v) | grownNew;
                e.s1[ed] = n1;
                e.s2[ed] = n2;
                if (!e.planeMark[ed]) {
                    e.planeMark[ed] = 1;
                    e.planeDirty.push_back(ed);
                }
                if (simd::anyW(grownNew))
                    for (int el = 0; el < simd::elementsOf<W>(); ++el) {
                        std::uint64_t bits = simd::elemOf(grownNew, el);
                        while (bits) {
                            const int b = std::countr_zero(bits);
                            bits &= bits - 1;
                            e.grown[el * 64 + b].push_back(ed);
                        }
                    }
            }
            e.dirtyEdges.clear();
            for (int v : e.touched) {
                e.act[v] = W{};
                e.actMark[v] = 0;
            }
            e.touched.clear();
        }

        anyLive = false;
        for (std::size_t l = 0; l < lanes; ++l) {
            if (e.finished[l])
                continue;
            const int el = static_cast<int>(l) / 64;
            const std::uint64_t bit = std::uint64_t{1} << (l % 64);
            if (!(simd::elemOf(deltaAny, el) & bit)) {
                // No support change anywhere: the lane's clusters are
                // all even or boundary-tied (scalar's !any_active).
                e.finished[l] = 1;
                continue;
            }
            ++e.rounds[l];
            require(e.rounds[l] <= growthBound,
                    "UnionFindDecoder: growth failed to converge");
            int *parentL = e.parent.data() + l * V;
            unsigned char *metaL = e.meta.data() + l * V;
            int *memberNextL = e.memberNext.data() + l * V;
            int *memberTailL = e.memberTail.data() + l * V;
            std::uint64_t *ebL =
                e.laneErasure.data() + l * e.eraseWords;
            auto &grown = e.grown[l];
            // The unapplied suffix is this round's grown edges, in
            // ascending edge order (the shared dirty-edge sweep
            // order); the applied prefix stays accumulated for the
            // peel's forest adjacency.
            for (std::size_t gi = static_cast<std::size_t>(
                     e.grownDone[l]);
                 gi < grown.size(); ++gi) {
                const int ed = grown[gi];
                const int eu = edges[ed].u;
                const int ev = edges[ed].v;
                ebL[eu >> 6] |= std::uint64_t{1} << (eu & 63);
                ebL[ev >> 6] |= std::uint64_t{1} << (ev & 63);
                int a = findRoot(parentL, eu);
                int b = findRoot(parentL, ev);
                if (a == b)
                    continue;
                unsigned char ma = metaL[a], mb = metaL[b];
                if ((ma >> 3) < (mb >> 3)) {
                    std::swap(a, b);
                    std::swap(ma, mb);
                }
                parentL[b] = a;
                // XOR parities (bit0), OR boundary (bit1), keep a's
                // listed bit and rank; equal ranks bump a's.
                unsigned char merged = (ma ^ (mb & 1)) | (mb & 2);
                if ((ma >> 3) == (mb >> 3))
                    merged += 8;
                // Splice b's member list onto a's (b's list starts
                // at b itself — every root heads its own list).
                memberNextL[memberTailL[a]] = b;
                memberTailL[a] = memberTailL[b];
                if (!(merged & 4)) {
                    merged |= 4;
                    e.roots[l].push_back(a);
                }
                metaL[a] = merged;
            }
            e.grownDone[l] = static_cast<int>(grown.size());
            anyLive = true;
        }
    }

    // Peel each lane with the scalar decoder's exact forest walk,
    // reading support from the s2 bit-plane, then restore the lane's
    // union-find slice by rewinding only the erasure vertices — the
    // complete set of state a trial dirtied (the erasure bitset
    // collects every seed and every grown edge endpoint). The peel
    // scratch is shared across lanes: hot/visited never leave the
    // erasure, and parentEdge is only ever read for BFS-reached
    // vertices (the BFS stamps its root with -1), so the per-lane
    // reset walks just the erasure, and the arrays stay resident in
    // L1.
    for (std::size_t l = 0; l < lanes; ++l) {
        Correction &out = ws.laneCorrections[base + l];
        auto &cand = e.candidates[l];
        int *parentL = e.parent.data() + l * V;
        unsigned char *metaL = e.meta.data() + l * V;
        int *memberNextL = e.memberNext.data() + l * V;
        int *memberTailL = e.memberTail.data() + l * V;
        char *hot = e.hot.data();
        char *visited = e.visited.data();
        int *parentEdge = e.parentEdge.data();

        for (int s : cand)
            hot[s] = 1;

        // Scan (and rezero) the lane's erasure bitset: bit order IS
        // ascending vertex order, so forest roots are chosen in the
        // same order as the scalar decoder's whole-graph scan with no
        // dedup pass or sort.
        auto &erasure = e.erasure;
        erasure.clear();
        std::uint64_t *ebL = e.laneErasure.data() + l * e.eraseWords;
        for (int w = 0; w < e.eraseWords; ++w) {
            std::uint64_t bits = ebL[w];
            ebL[w] = 0;
            while (bits) {
                erasure.push_back(w * 64 + std::countr_zero(bits));
                bits &= bits - 1;
            }
        }

        // Mark the lane's grown (s2) edge set in the shared E-byte
        // array — order is irrelevant for marking, so the accumulated
        // grown list needs no sort. The BFS walks the CSR incident
        // lists testing this byte instead of extracting lane bits
        // from the 64-byte-strided s2 plane, so its edge-membership
        // reads stay within a few hot L1 lines.
        auto &grown = e.grown[l];
        char *grownMark = e.grownMark.data();
        for (const int ed : grown)
            grownMark[ed] = 1;

        // The FIFO queue IS the visit order, so one vector serves as
        // both; `head` persists across roots (each BFS drains fully
        // before the next root is seeded).
        auto &bfsOrder = e.bfsOrder;
        bfsOrder.clear();
        std::size_t head = 0;
        auto bfsFrom = [&](int root) {
            bfsOrder.push_back(root);
            visited[root] = 1;
            parentEdge[root] = -1;
            while (head < bfsOrder.size()) {
                const int v = bfsOrder[head++];
                for (int k = incOff[v]; k < incOff[v + 1]; ++k) {
                    const int ed = incEdges[k];
                    if (!grownMark[ed])
                        continue;
                    const int w = edges[ed].u == v ? edges[ed].v
                                                   : edges[ed].u;
                    if (visited[w])
                        continue;
                    visited[w] = 1;
                    parentEdge[w] = ed;
                    bfsOrder.push_back(w);
                }
            }
        };

        // Boundary roots first so leftover parity drains into
        // boundaries.
        for (int v : erasure)
            if (v >= numAncillaVertices && !visited[v])
                bfsFrom(v);
        for (int v : erasure)
            if (v < numAncillaVertices && !visited[v])
                bfsFrom(v);

        for (std::size_t i = bfsOrder.size(); i-- > 0;) {
            const int v = bfsOrder[i];
            if (!hot[v] || parentEdge[v] < 0)
                continue;
            const GraphEdge &ed = edges[parentEdge[v]];
            const int p = ed.u == v ? ed.v : ed.u;
            // Time-like tree edges (dataIdx < 0) re-interpret
            // measurement flips: parity still moves to the parent, no
            // data flip.
            if (ed.dataIdx >= 0)
                out.dataFlips.push_back(ed.dataIdx);
            hot[v] = 0;
            hot[p] ^= 1;
        }

        // One pass over the erasure: check that every interior vertex
        // drained (boundary vertices absorb anything left; hot never
        // leaves the erasure, so this is equivalent to the scalar
        // whole-graph check), then restore the lane's invariant and
        // clear the shared scratch for the next lane. Member-list
        // splices only ever touch cluster members, every member is in
        // the erasure, and the BFS never leaves it (s2 edges connect
        // grown-edge endpoints, all of which are candidates).
        for (int v : erasure) {
            require(v >= numAncillaVertices || !hot[v],
                    "UnionFindDecoder: peeling left a hot interior "
                    "vertex");
            parentL[v] = v;
            metaL[v] = v >= numAncillaVertices ? 2 : 0;
            memberNextL[v] = -1;
            memberTailL[v] = v;
            hot[v] = 0;
            visited[v] = 0;
        }

        // Clear the lane's edge marks and reset its grown
        // accumulator.
        for (const int ed : grown)
            grownMark[ed] = 0;
        grown.clear();
        e.grownDone[l] = 0;

        lastRounds_ = e.rounds[l];
        noteDecode(out);
    }

    // Rewind the shared planes (after every lane's peel — the peel
    // reads s2) so the next chunk starts from all-zero without an
    // O(E)-word clear.
    for (int ed : e.planeDirty) {
        e.s1[ed] = W{};
        e.s2[ed] = W{};
        e.planeMark[ed] = 0;
    }
    e.planeDirty.clear();
}

void
UnionFindDecoder::decodeOnGraph(const Graph &graph,
                                const std::vector<int> &seeds,
                                int growthBound, TrialWorkspace &ws)
{
    const auto &edges = graph.edges;
    const auto &incident = graph.incident;
    const int numAncillaVertices = graph.numAncillaVertices;
    const int numVertices = graph.numVertices;

    auto &parent = ws.ufParent;
    auto &rank = ws.ufRank;
    auto &parity = ws.ufParity;
    auto &boundary = ws.ufBoundary;
    parent.resize(numVertices);
    rank.assign(numVertices, 0);
    parity.assign(numVertices, 0);
    boundary.assign(numVertices, 0);
    for (int v = 0; v < numVertices; ++v)
        parent[v] = v;
    for (int v = numAncillaVertices; v < numVertices; ++v)
        boundary[v] = 1;
    for (int s : seeds)
        parity[s] = 1;

    auto find = [&parent](int v) {
        while (parent[v] != v) {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        return v;
    };
    auto unite = [&](int a, int b) {
        a = find(a);
        b = find(b);
        if (a == b)
            return;
        if (rank[a] < rank[b])
            std::swap(a, b);
        parent[b] = a;
        if (rank[a] == rank[b])
            ++rank[a];
        parity[a] ^= parity[b];
        boundary[a] |= boundary[b];
    };

    // Cluster growth: odd non-boundary clusters add half-edge support to
    // all edges on their border each round; edges with full support merge
    // their endpoints. Only cluster members can sit on an active border,
    // and every member is a hot seed or an endpoint of a previously
    // grown edge — so each round scans just that candidate frontier
    // instead of the whole graph. Support increments, growth rounds and
    // the final erasure are identical to the full-graph scan (each
    // active endpoint contributes one half edge either way); the
    // retained reference decoder in the tests pins this bit for bit.
    auto &support = ws.ufSupport;
    auto &candidates = ws.ufCandidates;
    auto &stamp = ws.ufStamp;
    auto &grown = ws.ufGrown;
    support.assign(edges.size(), 0);
    stamp.assign(numVertices, 0);
    candidates.assign(seeds.begin(), seeds.end());

    for (;;) {
        bool any_active = false;
        grown.clear();
        const int round_stamp = lastRounds_ + 1;
        for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
            const int v = candidates[ci];
            if (stamp[v] == round_stamp)
                continue;
            stamp[v] = round_stamp;
            const int r = find(v);
            if (!parity[r] || boundary[r])
                continue;
            for (int e : incident[v]) {
                if (support[e] >= 2)
                    continue;
                any_active = true;
                if (++support[e] >= 2)
                    grown.push_back(e);
            }
        }
        if (!any_active)
            break;
        ++lastRounds_;
        for (int e : grown) {
            unite(edges[e].u, edges[e].v);
            candidates.push_back(edges[e].u);
            candidates.push_back(edges[e].v);
        }
        require(lastRounds_ <= growthBound,
                "UnionFindDecoder: growth failed to converge");
    }

    // Peeling on the erasure (fully grown edges): build a BFS forest per
    // cluster rooted at a boundary vertex when available, then peel from
    // the leaves inward, flipping tree edges below hot vertices.
    //
    // Only erasure vertices matter here, and after the growth loop the
    // candidate list contains exactly the hot seeds plus every grown
    // edge's endpoints — i.e. the whole erasure (every hot vertex ends
    // incident to a full edge). Deduplicate and sort it so the forest
    // roots are chosen in the same ascending boundary-then-ancilla
    // order as a whole-graph scan would.
    auto &hot = ws.ufHot;
    hot.assign(numVertices, 0);
    for (int s : seeds)
        hot[s] = 1;

    auto &parent_edge = ws.ufParentEdge;
    auto &bfs_order = ws.ufBfsOrder;
    auto &visited = ws.ufVisited;
    auto &queue = ws.ufQueue;
    parent_edge.assign(numVertices, -1);
    bfs_order.clear();
    visited.assign(numVertices, 0);

    auto &erasure = ws.ufGrown; // growth loop is done with it
    erasure.clear();
    for (int v : candidates)
        if (stamp[v] != -1) {
            stamp[v] = -1;
            erasure.push_back(v);
        }
    std::sort(erasure.begin(), erasure.end());

    auto bfsFrom = [&](int root) {
        queue.clear();
        std::size_t head = 0;
        queue.push_back(root);
        visited[root] = 1;
        while (head < queue.size()) {
            const int v = queue[head++];
            bfs_order.push_back(v);
            for (int e : incident[v]) {
                if (support[e] < 2)
                    continue;
                const int w = edges[e].u == v ? edges[e].v
                                              : edges[e].u;
                if (visited[w])
                    continue;
                visited[w] = 1;
                parent_edge[w] = e;
                queue.push_back(w);
            }
        }
    };

    // Boundary roots first so leftover parity drains into boundaries.
    for (int v : erasure)
        if (v >= numAncillaVertices && !visited[v])
            bfsFrom(v);
    for (int v : erasure)
        if (v < numAncillaVertices && !visited[v])
            bfsFrom(v);

    for (std::size_t i = bfs_order.size(); i-- > 0;) {
        const int v = bfs_order[i];
        if (!hot[v] || parent_edge[v] < 0)
            continue;
        const GraphEdge &e = edges[parent_edge[v]];
        const int p = e.u == v ? e.v : e.u;
        // Time-like tree edges (dataIdx < 0) re-interpret measurement
        // flips: parity still moves to the parent, no data flip.
        if (e.dataIdx >= 0)
            ws.correction.dataFlips.push_back(e.dataIdx);
        hot[v] = 0;
        hot[p] ^= 1;
    }

    // Boundary vertices absorb anything left; every interior vertex must
    // have drained (non-roots by the peel, interior roots because their
    // cluster parity is even by the growth exit condition).
    for (int v = 0; v < numAncillaVertices; ++v)
        require(!hot[v],
                "UnionFindDecoder: peeling left a hot interior vertex");
}

} // namespace nisqpp
