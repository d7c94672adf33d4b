#include "support/lut_decoder.hh"

#include <bit>

#include "common/logging.hh"
#include "decoders/workspace.hh"

namespace nisqpp {

LutDecoder::LutDecoder(const SurfaceLattice &lattice, ErrorType type)
    : Decoder(lattice, type)
{
    const int nd = lattice.numData();
    const int na = lattice.numAncilla(type);
    require(nd <= 20, "LutDecoder: lattice too large for brute force");
    require(na <= 24, "LutDecoder: syndrome space too large");

    table_.assign(std::size_t{1} << na, UINT32_MAX);
    std::vector<int> best_weight(std::size_t{1} << na, nd + 1);

    // Enumerate every error pattern; record the lightest pattern that
    // produces each syndrome. Identical-weight ties resolve to the
    // lowest bitmask for determinism.
    for (std::uint32_t pattern = 0;
         pattern < (std::uint32_t{1} << nd); ++pattern) {
        std::uint32_t key = 0;
        for (int a = 0; a < na; ++a) {
            char parity = 0;
            for (int d : lattice.ancillaDataNeighbors(type, a))
                parity ^= static_cast<char>((pattern >> d) & 1u);
            key |= static_cast<std::uint32_t>(parity) << a;
        }
        const int w = std::popcount(pattern);
        if (w < best_weight[key]) {
            best_weight[key] = w;
            table_[key] = pattern;
        }
    }
    for (auto entry : table_)
        require(entry != UINT32_MAX,
                "LutDecoder: unreachable syndrome (geometry bug)");
}

std::uint32_t
LutDecoder::syndromeKey(const Syndrome &syndrome) const
{
    std::uint32_t key = 0;
    for (int a = 0; a < syndrome.size(); ++a)
        key |= static_cast<std::uint32_t>(syndrome.hot(a) ? 1u : 0u) << a;
    return key;
}

void
LutDecoder::decode(const Syndrome &syndrome, TrialWorkspace &ws)
{
    ws.correction.clear();
    const std::uint32_t pattern = table_.at(syndromeKey(syndrome));
    for (int d = 0; d < lattice().numData(); ++d)
        if ((pattern >> d) & 1u)
            ws.correction.dataFlips.push_back(d);
}

} // namespace nisqpp
