/** @file Tests for the clocked netlist functional simulator. */

#include <gtest/gtest.h>

#include "sfq/path_balance.hh"
#include "support/netlist_sim.hh"

namespace nisqpp {
namespace {

TEST(NetlistSim, SingleGatePipelines)
{
    Netlist net("t");
    const NodeId a = net.addInput("a");
    const NodeId b = net.addInput("b");
    net.markOutput(net.andGate(a, b), "o");
    NetlistSim sim(net);
    sim.setInput("a", true);
    sim.setInput("b", true);
    EXPECT_FALSE(sim.output("o"));
    sim.clock();
    EXPECT_TRUE(sim.output("o"));
    sim.setInput("b", false);
    sim.clock();
    EXPECT_FALSE(sim.output("o"));
}

TEST(NetlistSim, BalancedPipelineLatencyEqualsDepth)
{
    // After full balancing, a change at the inputs reaches every
    // output after exactly `depth` clocks.
    Netlist net("t");
    const NodeId a = net.addInput("a");
    const NodeId b = net.addInput("b");
    const NodeId c = net.addInput("c");
    net.markOutput(net.orGate(net.andGate(a, b), c), "o");
    const BalancedNetlist bal = pathBalance(net);
    NetlistSim sim(bal.netlist);
    sim.setInput("a", true);
    sim.setInput("b", true);
    sim.setInput("c", false);
    for (int i = 0; i < bal.depth - 1; ++i) {
        sim.clock();
        EXPECT_FALSE(sim.output("o")) << "cycle " << i;
    }
    sim.clock();
    EXPECT_TRUE(sim.output("o"));
}

TEST(NetlistSim, DffChainDelays)
{
    Netlist net("t");
    const NodeId a = net.addInput("a");
    const NodeId d1 = net.addGate(CellKind::DroDff, {a});
    const NodeId d2 = net.addGate(CellKind::DroDff, {d1});
    net.markOutput(d2, "o");
    NetlistSim sim(net);
    sim.setInput("a", true);
    sim.clock();
    EXPECT_FALSE(sim.output("o"));
    sim.clock();
    EXPECT_TRUE(sim.output("o"));
}

TEST(NetlistSim, StateFeedbackLatchHolds)
{
    // latch_next = latch OR in: a set-once latch.
    Netlist net("t");
    const NodeId in = net.addInput("in");
    const NodeId latch = net.addStateDff("latch");
    net.connectFeedback(latch, net.orGate(latch, in));
    net.markOutput(latch, "o");
    NetlistSim sim(net);
    sim.setInput("in", false);
    sim.run(3);
    EXPECT_FALSE(sim.output("o"));
    sim.setInput("in", true);
    sim.run(2);
    EXPECT_TRUE(sim.output("o"));
    sim.setInput("in", false);
    sim.run(5);
    EXPECT_TRUE(sim.output("o")); // held
}

TEST(NetlistSim, ResetClearsState)
{
    NetlistSim *p = nullptr;
    Netlist net("t");
    const NodeId in = net.addInput("in");
    net.markOutput(net.notGate(in), "o");
    NetlistSim sim(net);
    p = &sim;
    p->setInput("in", false);
    p->clock();
    EXPECT_TRUE(p->output("o"));
    p->reset();
    EXPECT_FALSE(p->output("o"));
}

TEST(NetlistSim, UnknownPortsRejected)
{
    Netlist net("t");
    const NodeId a = net.addInput("a");
    net.markOutput(net.notGate(a), "o");
    NetlistSim sim(net);
    EXPECT_DEATH(sim.setInput("nope", true), "unknown input");
    EXPECT_DEATH(sim.output("nope"), "unknown output");
}

} // namespace
} // namespace nisqpp
