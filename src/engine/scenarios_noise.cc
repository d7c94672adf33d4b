/**
 * @file
 * Noise-subsystem scenario bodies: the faulty-measurement windowed
 * regime (fig10_measurement) and the channel x decoder compatibility
 * grid (noise_zoo). Both dispatch through the sharded parallel engine,
 * so aggregates are byte-identical at any thread count and the golden
 * net pins them like every other scenario.
 */

#include "engine/scenarios.hh"

#include <memory>
#include <string>
#include <vector>

#include "engine/scenario.hh"
#include "sim/experiment.hh"

namespace nisqpp {
namespace scenarios {

void
fig10Measurement(ScenarioContext &ctx)
{
    ctx.note("=== fig10_measurement: PL vs p under faulty "
             "measurement (q = p) ===");
    ctx.note("(dephasing + readout flips, d-round windows + perfect "
             "commit round,\n spacetime decodeWindow; phenomenological "
             "threshold ~3%)\n");

    const std::vector<int> distances{3, 5, 9};
    const std::vector<double> rates =
        SweepConfig::logSpaced(0.004, 0.03, 6);
    const std::vector<std::string> families{"mwpm", "union_find"};

    for (const std::string &family : families) {
        ctx.note("--- decoder: " + family + " (spacetime "
                 "decodeWindow) ---");
        const DecoderFactory &factory =
            decoderFamilies()[decoderFamilyIndex(family)].factory;
        std::vector<std::string> header{"p = q (%)"};
        for (int d : distances)
            header.push_back("PL d=" + std::to_string(d));
        TablePrinter table(header);

        // One sweep per rate: q tracks the sweep axis, so each p is
        // its own single-rate sweep with noise.q = p.
        for (double p : rates) {
            SweepConfig config;
            config.distances = distances;
            config.physicalRates = {p};
            config.noise = NoiseSpec::dephasing().withQ(p);
            config.stopRule = ctx.scaled({800, 800, 1u << 30});
            config.seed = ctx.seed(0x3ea5ULL);
            // Window length scales with distance: runSweep applies
            // windowRounds uniformly, so sweep each distance alone.
            std::vector<std::string> row{
                TablePrinter::num(100 * p, 3)};
            for (std::size_t di = 0; di < distances.size(); ++di) {
                SweepConfig cell = config;
                cell.distances = {distances[di]};
                cell.windowRounds = distances[di];
                const SweepResult result =
                    ctx.engine().runSweep(cell, factory);
                const double pl = result.curves[0].pl[0];
                row.push_back(TablePrinter::num(100 * pl, 3));
            }
            table.addRow(row);
        }
        ctx.table("fig10_measurement_" + family, table);
    }

    ctx.note("\nbelow threshold the windowed spacetime decoders "
             "restore error suppression with distance — PL(d=9) < "
             "PL(d=5) < PL(d=3) — which single-round decoding cannot "
             "achieve once measurements lie; near p = q ~ 3% the "
             "curves cross (accuracy threshold of the "
             "phenomenological model).");
}

void
noiseZoo(ScenarioContext &ctx)
{
    ctx.note("=== noise_zoo: every channel x every decoder ===");
    ctx.note("(d = 5, p = 5%, per-round protocol, perfect "
             "measurement; X-producing channels decode both "
             "families)\n");

    const std::vector<DecoderFamily> &families = decoderFamilies();
    TablePrinter table({"channel", "decoder", "windowed", "trials",
                        "PL"});

    SurfaceLattice lattice(5);
    // The decodeWindow strategy is a per-family constant; probe each
    // family once instead of per channel row.
    std::vector<std::string> windowStrategy;
    for (const DecoderFamily &family : families)
        windowStrategy.push_back(
            family.factory(lattice, ErrorType::Z)->windowAware()
                ? "spacetime"
                : "majority");

    Rng master(ctx.seed(0x2009ULL));
    for (NoiseKind kind : noiseKindRegistry()) {
        // One cell seed per channel: every decoder family faces the
        // identical error stream for that channel.
        Rng child = master.split();
        const std::uint64_t cellSeed = child.next();
        NoiseSpec spec;
        spec.kind = kind;
        for (std::size_t fi = 0; fi < families.size(); ++fi) {
            const DecoderFamily &family = families[fi];
            CellSpec cell;
            cell.lattice = &lattice;
            cell.physicalRate = 0.05;
            cell.noise = spec;
            cell.rule = ctx.scaled({1000, 1000, 1u << 30});
            cell.seed = cellSeed;
            cell.factory = &family.factory;
            const MonteCarloResult r = ctx.engine().runCell(cell);

            table.addRow({noiseKindName(kind), family.name,
                          windowStrategy[fi],
                          std::to_string(r.trials),
                          TablePrinter::num(r.logicalErrorRate, 4)});
        }
    }
    ctx.table("noise_zoo", table);

    ctx.note("\nthe 'windowed' column reports each decoder's "
             "decodeWindow strategy (spacetime matching vs "
             "round-majority fallback); biased noise (eta = 10) "
             "behaves between dephasing and depolarizing, and the "
             "erasure channel kicks each erased qubit into a uniformly "
             "random Pauli.");
}

} // namespace scenarios
} // namespace nisqpp
