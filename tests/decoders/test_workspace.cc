/**
 * @file Workspace property tests: for every decoder family, decoding
 * through one long-lived TrialWorkspace (buffers dirty from *other*
 * decoders, distances and error types) must produce exactly the same
 * corrections as the allocating decode() entry point (a fresh
 * workspace per call), across lattices d = 3..11 and many random
 * syndromes. Also pins the frontier-scan union-find growth to a
 * retained reference implementation of the original whole-graph scan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <queue>
#include <vector>

#include "common/rng.hh"
#include "core/mesh_decoder.hh"
#include "decoders/greedy_decoder.hh"
#include "decoders/mwpm_decoder.hh"
#include "decoders/union_find_decoder.hh"
#include "decoders/workspace.hh"
#include "support/lut_decoder.hh"
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

/**
 * The pre-frontier union-find decoder, retained verbatim as the
 * reference the production decoder is pinned against: whole-graph
 * edge scan per growth round, queue-based BFS peel over all vertices.
 */
class ReferenceUnionFind
{
  public:
    ReferenceUnionFind(const SurfaceLattice &lattice, ErrorType type)
        : lattice_(&lattice), type_(type)
    {
        const int na = lattice.numAncilla(type);
        numAncillaVertices_ = na;
        numVertices_ = na;
        incident_.resize(na);
        for (int d = 0; d < lattice.numData(); ++d) {
            const auto &ancs = lattice.dataAncillaNeighbors(type, d);
            if (ancs.size() == 2) {
                const int id = static_cast<int>(edges_.size());
                edges_.push_back({ancs[0], ancs[1], d});
                incident_[ancs[0]].push_back(id);
                incident_[ancs[1]].push_back(id);
            } else {
                const int bv = numVertices_++;
                incident_.emplace_back();
                const int id = static_cast<int>(edges_.size());
                edges_.push_back({ancs[0], bv, d});
                incident_[ancs[0]].push_back(id);
                incident_[bv].push_back(id);
            }
        }
    }

    std::vector<int>
    decode(const Syndrome &syndrome)
    {
        std::vector<int> corr;
        if (syndrome.weight() == 0)
            return corr;

        parent_.resize(numVertices_);
        rank_.assign(numVertices_, 0);
        parity_.assign(numVertices_, 0);
        boundary_.assign(numVertices_, 0);
        for (int v = 0; v < numVertices_; ++v)
            parent_[v] = v;
        for (int v = numAncillaVertices_; v < numVertices_; ++v)
            boundary_[v] = 1;
        for (int a = 0; a < numAncillaVertices_; ++a)
            parity_[a] = syndrome.hot(a);

        std::vector<char> support(edges_.size(), 0);
        auto clusterActive = [&](int v) {
            const int r = find(v);
            return parity_[r] && !boundary_[r];
        };
        for (;;) {
            bool any_active = false;
            std::vector<int> grown;
            for (std::size_t e = 0; e < edges_.size(); ++e) {
                if (support[e] >= 2)
                    continue;
                const bool a_act = clusterActive(edges_[e].u);
                const bool b_act = clusterActive(edges_[e].v);
                const int inc = (a_act ? 1 : 0) + (b_act ? 1 : 0);
                if (inc == 0)
                    continue;
                any_active = true;
                support[e] = static_cast<char>(
                    std::min(2, support[e] + inc));
                if (support[e] >= 2)
                    grown.push_back(static_cast<int>(e));
            }
            if (!any_active)
                break;
            for (int e : grown)
                unite(edges_[e].u, edges_[e].v);
        }

        std::vector<char> hot(numVertices_, 0);
        for (int a = 0; a < numAncillaVertices_; ++a)
            hot[a] = syndrome.hot(a);
        std::vector<int> parent_edge(numVertices_, -1);
        std::vector<int> bfs_order;
        std::vector<char> visited(numVertices_, 0);
        auto bfsFrom = [&](int root) {
            std::queue<int> q;
            q.push(root);
            visited[root] = 1;
            while (!q.empty()) {
                const int v = q.front();
                q.pop();
                bfs_order.push_back(v);
                for (int e : incident_[v]) {
                    if (support[e] < 2)
                        continue;
                    const int w = edges_[e].u == v ? edges_[e].v
                                                   : edges_[e].u;
                    if (visited[w])
                        continue;
                    visited[w] = 1;
                    parent_edge[w] = e;
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

        for (std::size_t i = bfs_order.size(); i-- > 0;) {
            const int v = bfs_order[i];
            if (!hot[v] || parent_edge[v] < 0)
                continue;
            const auto &e = edges_[parent_edge[v]];
            const int p = e.u == v ? e.v : e.u;
            corr.push_back(e.dataIdx);
            hot[v] = 0;
            hot[p] ^= 1;
        }
        return corr;
    }

  private:
    struct GraphEdge
    {
        int u, v, dataIdx;
    };

    int find(int v)
    {
        while (parent_[v] != v) {
            parent_[v] = parent_[parent_[v]];
            v = parent_[v];
        }
        return v;
    }

    void unite(int a, int b)
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

    const SurfaceLattice *lattice_;
    ErrorType type_;
    std::vector<GraphEdge> edges_;
    std::vector<std::vector<int>> incident_;
    int numAncillaVertices_ = 0;
    int numVertices_ = 0;
    std::vector<int> parent_, rank_;
    std::vector<char> parity_, boundary_;
};

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
