#include "support/reference_union_find.hh"

#include <algorithm>
#include <queue>
#include <utility>

namespace nisqpp {

ReferenceUnionFind::ReferenceUnionFind(const SurfaceLattice &lattice,
                                       ErrorType type)
    : lattice_(&lattice), type_(type)
{
}

void
ReferenceUnionFind::buildGraph(int rounds)
{
    if (graphRounds_ == rounds)
        return;
    const int na = lattice_->numAncilla(type_);
    graphRounds_ = rounds;
    edges_.clear();
    numAncillaVertices_ = rounds * na;
    numVertices_ = numAncillaVertices_;
    incident_.assign(numVertices_, {});
    auto addEdge = [this](int u, int v, int dataIdx) {
        incident_[u].push_back(static_cast<int>(edges_.size()));
        incident_[v].push_back(static_cast<int>(edges_.size()));
        edges_.push_back({u, v, dataIdx});
    };
    for (int t = 0; t < rounds; ++t) {
        const int base = t * na;
        for (int d = 0; d < lattice_->numData(); ++d) {
            const auto &ancs = lattice_->dataAncillaNeighbors(type_, d);
            if (ancs.size() == 2) {
                addEdge(base + ancs[0], base + ancs[1], d);
            } else {
                incident_.emplace_back();
                addEdge(base + ancs[0], numVertices_++, d);
            }
        }
        if (t + 1 < rounds)
            for (int a = 0; a < na; ++a)
                addEdge(base + a, base + na + a, -1);
    }
}

std::vector<int>
ReferenceUnionFind::decode(const Syndrome &syndrome)
{
    buildGraph(1);
    std::vector<char> hot(numVertices_, 0);
    for (int a = 0; a < numAncillaVertices_; ++a)
        hot[a] = syndrome.hot(a);
    return run(std::move(hot));
}

std::vector<int>
ReferenceUnionFind::decodeWindow(const SyndromeWindow &window)
{
    buildGraph(window.rounds());
    const int na = window.numAncilla();
    std::vector<char> hot(numVertices_, 0);
    window.forEachEvent([&hot, na](int t, int a) { hot[t * na + a] = 1; });
    ++counters_.windowDecodes;
    return run(std::move(hot));
}

std::vector<int>
ReferenceUnionFind::run(std::vector<char> hot)
{
    parent_.resize(numVertices_);
    rank_.assign(numVertices_, 0);
    parity_.assign(hot.begin(), hot.end());
    boundary_.assign(numVertices_, 0);
    for (int v = 0; v < numVertices_; ++v)
        parent_[v] = v;
    for (int v = numAncillaVertices_; v < numVertices_; ++v)
        boundary_[v] = 1;

    // Growth: every odd cluster not touching a boundary adds a half
    // edge to each edge on its border, found by scanning all edges;
    // fully grown edges merge their endpoints after the scan.
    std::vector<char> support(edges_.size(), 0);
    auto clusterActive = [&](int v) {
        const int r = find(v);
        return parity_[r] && !boundary_[r];
    };
    lastRounds_ = 0;
    for (;;) {
        bool anyActive = false;
        std::vector<int> grown;
        for (std::size_t e = 0; e < edges_.size(); ++e) {
            if (support[e] >= 2)
                continue;
            const int inc = (clusterActive(edges_[e].u) ? 1 : 0) +
                            (clusterActive(edges_[e].v) ? 1 : 0);
            if (inc == 0)
                continue;
            anyActive = true;
            support[e] = static_cast<char>(std::min(2, support[e] + inc));
            if (support[e] >= 2)
                grown.push_back(static_cast<int>(e));
        }
        if (!anyActive)
            break;
        ++lastRounds_;
        for (int e : grown)
            unite(edges_[e].u, edges_[e].v);
    }

    // Peel: a BFS forest over the grown edges, rooted at boundary
    // vertices first, walked leaves-inward flipping the tree edge
    // below every hot vertex.
    std::vector<int> parentEdge(numVertices_, -1);
    std::vector<int> bfsOrder;
    std::vector<char> visited(numVertices_, 0);
    auto bfsFrom = [&](int root) {
        std::queue<int> q;
        q.push(root);
        visited[root] = 1;
        while (!q.empty()) {
            const int v = q.front();
            q.pop();
            bfsOrder.push_back(v);
            for (int e : incident_[v]) {
                if (support[e] < 2)
                    continue;
                const int w = edges_[e].u == v ? edges_[e].v : edges_[e].u;
                if (visited[w])
                    continue;
                visited[w] = 1;
                parentEdge[w] = e;
                q.push(w);
            }
        }
    };
    for (int v = numAncillaVertices_; v < numVertices_; ++v)
        if (!visited[v])
            bfsFrom(v);
    for (int v = 0; v < numAncillaVertices_; ++v)
        if (!visited[v])
            bfsFrom(v);

    std::vector<int> corr;
    for (std::size_t i = bfsOrder.size(); i-- > 0;) {
        const int v = bfsOrder[i];
        if (!hot[v] || parentEdge[v] < 0)
            continue;
        const Edge &e = edges_[parentEdge[v]];
        if (e.dataIdx >= 0)
            corr.push_back(e.dataIdx);
        hot[v] = 0;
        hot[e.u == v ? e.v : e.u] ^= 1;
    }

    ++counters_.decodes;
    counters_.growthRounds += static_cast<std::uint64_t>(lastRounds_);
    counters_.peelFlips += corr.size();
    ++counters_.roundsHist[lastRounds_];
    return corr;
}

int
ReferenceUnionFind::find(int v)
{
    while (parent_[v] != v) {
        parent_[v] = parent_[parent_[v]];
        v = parent_[v];
    }
    return v;
}

void
ReferenceUnionFind::unite(int a, int b)
{
    a = find(a);
    b = find(b);
    if (a == b)
        return;
    if (rank_[a] < rank_[b])
        std::swap(a, b);
    parent_[b] = a;
    if (rank_[a] == rank_[b])
        ++rank_[a];
    parity_[a] ^= parity_[b];
    boundary_[a] |= boundary_[b];
}

} // namespace nisqpp
