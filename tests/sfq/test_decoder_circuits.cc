/**
 * @file Netlist-vs-behavioral equivalence for the decoder subcircuits —
 * the repository's stand-in for the paper's JSIM functional
 * verification. The gate-level Pair_Req/Grow subcircuit is compared
 * exhaustively against the emitFromMeets() template the mesh simulator
 * evaluates; the stateful subcircuits are checked on protocol
 * scenarios.
 */

#include <gtest/gtest.h>

#include "core/module_logic.hh"
#include "sfq/decoder_circuits.hh"
#include "sfq/path_balance.hh"
#include "support/netlist_sim.hh"

namespace nisqpp {
namespace {

constexpr int dN = 0;
constexpr int dE = 1;
constexpr int dS = 2;
constexpr int dW = 3;

TEST(DecoderCircuits, GrowPairReqMatchesBehavioralExhaustively)
{
    // 4 grow bits x 4 rq bits x hot x reset = 1024 input combinations;
    // hold each on the pipelined netlist for `depth` cycles and compare
    // with the behavioral equations.
    const Netlist net = growPairReqSubcircuit();
    const BalancedNetlist bal = pathBalance(net);
    NetlistSim sim(bal.netlist);

    for (unsigned v = 0; v < 1024; ++v) {
        const bool hot = v & 1;
        const bool reset = v & 2;
        DirRow<unsigned> g{(v >> 2) & 1u, (v >> 3) & 1u, (v >> 4) & 1u,
                           (v >> 5) & 1u};
        DirRow<unsigned> rq{(v >> 6) & 1u, (v >> 7) & 1u,
                            (v >> 8) & 1u, (v >> 9) & 1u};

        sim.reset();
        sim.setInput("hot", hot);
        sim.setInput("reset", reset);
        for (int d = 0; d < 4; ++d) {
            sim.setInput(std::string("g_") + kDirName[d], g[d]);
            sim.setInput(std::string("rq_") + kDirName[d], rq[d]);
        }
        sim.run(bal.depth);

        // Behavioral reference (the mesh simulator's equations).
        const unsigned allow = (!hot && !reset) ? 1u : 0u;
        DirRow<unsigned> rq_emit{0, 0, 0, 0};
        emitFromMeets(g, allow, rq_emit);
        for (int d = 0; d < 4; ++d) {
            const bool grow_expect = !reset && (g[d] || hot);
            const bool rq_expect = (rq[d] && allow) || rq_emit[d];
            ASSERT_EQ(sim.output(std::string("grow_") + kDirName[d]),
                      grow_expect)
                << "v=" << v << " dir=" << d;
            ASSERT_EQ(sim.output(std::string("rq_") + kDirName[d]),
                      rq_expect)
                << "v=" << v << " dir=" << d;
        }
    }
}

TEST(DecoderCircuits, PairGrantLatchesOneGrant)
{
    const Netlist net = pairGrantSubcircuit();
    const BalancedNetlist bal = pathBalance(net);
    NetlistSim sim(bal.netlist);

    sim.setInput("hot", true);
    sim.setInput("reset", false);
    sim.setInput("formed", false);
    for (int d = 0; d < 4; ++d) {
        sim.setInput(std::string("rq_") + kDirName[d], false);
        sim.setInput(std::string("gr_") + kDirName[d], false);
    }
    // Request traveling W arrives: grant must go E and hold after the
    // request disappears. The latch loop spans the combinational depth,
    // so allow a few round trips for state to settle.
    sim.setInput("rq_w", true);
    sim.run(3 * bal.depth);
    EXPECT_TRUE(sim.output("gr_e"));
    sim.setInput("rq_w", false);
    sim.run(3 * bal.depth);
    EXPECT_TRUE(sim.output("gr_e"));
    // A later request from another side must not add a second grant.
    sim.setInput("rq_e", true);
    sim.run(3 * bal.depth);
    EXPECT_TRUE(sim.output("gr_e"));
    EXPECT_FALSE(sim.output("gr_w"));
    // Reset clears the latch.
    sim.setInput("reset", true);
    sim.setInput("rq_e", false);
    sim.run(3 * bal.depth);
    sim.setInput("reset", false);
    sim.run(3 * bal.depth);
    EXPECT_FALSE(sim.output("gr_e"));
}

TEST(DecoderCircuits, PairGrantPassBlockedWhenHot)
{
    const Netlist net = pairGrantSubcircuit();
    const BalancedNetlist bal = pathBalance(net);
    NetlistSim sim(bal.netlist);
    for (int d = 0; d < 4; ++d) {
        sim.setInput(std::string("rq_") + kDirName[d], false);
        sim.setInput(std::string("gr_") + kDirName[d], false);
    }
    sim.setInput("reset", false);
    sim.setInput("formed", false);
    sim.setInput("gr_n", true);

    sim.setInput("hot", false);
    sim.run(bal.depth + 1);
    EXPECT_TRUE(sim.output("gr_n")); // passes when cold

    sim.setInput("hot", true);
    sim.run(bal.depth + 1);
    EXPECT_FALSE(sim.output("gr_n")); // absorbed when hot
}

TEST(DecoderCircuits, PairSubcircuitFormsOnce)
{
    const Netlist net = pairSubcircuit();
    const BalancedNetlist bal = pathBalance(net);
    NetlistSim sim(bal.netlist);
    for (int d = 0; d < 4; ++d) {
        sim.setInput(std::string("gr_") + kDirName[d], false);
        sim.setInput(std::string("pr_") + kDirName[d], false);
    }
    sim.setInput("hot", false);
    sim.setInput("reset", false);
    sim.setInput("boundary", false);

    // Grant trains meet head-on (E and W). The behavioral mesh model
    // treats the formed latch as instantaneous; in the gate-level
    // pipeline the latch takes up to `depth` clocks to gate the
    // emission, so the formation signal is a bounded burst rather than
    // a single pulse (a microarchitectural refinement noted in
    // EXPERIMENTS.md). It must assert, and it must stop.
    sim.setInput("gr_e", true);
    sim.setInput("gr_w", true);
    int formation_cycles = 0;
    for (int i = 0; i < 4 * bal.depth; ++i) {
        sim.clock();
        formation_cycles += sim.output("formed_now");
    }
    EXPECT_GE(formation_cycles, 1);
    EXPECT_LE(formation_cycles, 2 * bal.depth)
        << "formation burst must be bounded by the latch loop latency";
}

TEST(DecoderCircuits, PairFireOnHotEndpoint)
{
    const Netlist net = pairSubcircuit();
    const BalancedNetlist bal = pathBalance(net);
    NetlistSim sim(bal.netlist);
    for (int d = 0; d < 4; ++d) {
        sim.setInput(std::string("gr_") + kDirName[d], false);
        sim.setInput(std::string("pr_") + kDirName[d], false);
    }
    sim.setInput("hot", true);
    sim.setInput("reset", false);
    sim.setInput("boundary", false);
    sim.setInput("pr_n", true);
    sim.run(bal.depth);
    EXPECT_TRUE(sim.output("fire"));
    EXPECT_FALSE(sim.output("pr_n")); // absorbed, not passed
}

TEST(DecoderCircuits, BoundaryConvertsGrantToPair)
{
    const Netlist net = pairSubcircuit();
    const BalancedNetlist bal = pathBalance(net);
    NetlistSim sim(bal.netlist);
    for (int d = 0; d < 4; ++d) {
        sim.setInput(std::string("gr_") + kDirName[d], false);
        sim.setInput(std::string("pr_") + kDirName[d], false);
    }
    sim.setInput("hot", false);
    sim.setInput("reset", false);
    sim.setInput("boundary", true);
    // Grant traveling W arrives at a west boundary module: it answers
    // with a pair pulse traveling E.
    sim.setInput("gr_w", true);
    bool saw_pair = false;
    for (int i = 0; i < bal.depth + 4; ++i) {
        sim.clock();
        saw_pair |= sim.output("pr_e");
    }
    EXPECT_TRUE(saw_pair);
}

TEST(DecoderCircuits, ResetKeeperHoldsFiveCycles)
{
    // The keeper is deliberately NOT path balanced: the staggered
    // buffer taps are what stretch a one-cycle trigger into a
    // multi-cycle block (Section VI-A). Simulate it raw.
    const Netlist net = resetKeeperSubcircuit();
    NetlistSim sim(net);
    sim.setInput("global_reset", false);
    sim.setInput("trigger", false);
    sim.run(12);
    EXPECT_FALSE(sim.output("block"));

    // One-cycle trigger pulse.
    sim.setInput("trigger", true);
    sim.clock();
    sim.setInput("trigger", false);
    // The block must assert for >= 5 cycles in total.
    int held = 0;
    for (int i = 0; i < 16; ++i) {
        sim.clock();
        held += sim.output("block");
    }
    EXPECT_GE(held, 5);
    EXPECT_LE(held, 9);
    sim.run(8);
    EXPECT_FALSE(sim.output("block"));
}

TEST(DecoderCircuits, FullModuleSynthesizes)
{
    const Netlist net = fullDecoderModule();
    const BalancedNetlist bal = pathBalance(net);
    EXPECT_EQ(checkBalanced(bal.netlist), bal.depth);
    EXPECT_GT(net.countKind(CellKind::And2), 20u);
    EXPECT_GT(net.countKind(CellKind::Or2), 15u);
}

} // namespace
} // namespace nisqpp
