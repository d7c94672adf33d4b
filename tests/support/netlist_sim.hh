/**
 * @file
 * Clocked functional simulation of SFQ netlists (test support) — the
 * repository's stand-in for the JSIM verification step of paper
 * Section VII. Every cell (gate or DFF) registers its output each
 * clock, matching the "signals advance one gate per cycle" behavior of
 * clocked dc-biased SFQ logic; a fully path-balanced pipeline of depth
 * D therefore reproduces its combinational function with D cycles of
 * latency, which the equivalence tests against the behavioral module
 * logic exploit.
 */

#ifndef NISQPP_TESTS_SUPPORT_NETLIST_SIM_HH
#define NISQPP_TESTS_SUPPORT_NETLIST_SIM_HH

#include <map>
#include <string>
#include <vector>

#include "sfq/netlist.hh"

namespace nisqpp {

/** Cycle-accurate two-phase simulator for one netlist. */
class NetlistSim
{
  public:
    explicit NetlistSim(const Netlist &netlist);

    const Netlist &netlist() const { return *netlist_; }

    /** Reset all registers to 0. */
    void reset();

    /** Set a primary input (held until changed). */
    void setInput(const std::string &name, bool value);

    /** Advance one clock: every cell latches its new output. */
    void clock();

    /** Convenience: run @p cycles clocks. */
    void run(int cycles);

    /** Current registered value of primary output @p name. */
    bool output(const std::string &name) const;

    /** Current registered value of any node (for debugging/tests). */
    bool value(NodeId id) const { return state_.at(id); }

  private:
    const Netlist *netlist_;
    std::vector<char> state_;
    std::vector<char> next_;
    std::map<std::string, NodeId> inputIndex_;
    std::map<std::string, NodeId> outputIndex_;
};

} // namespace nisqpp

#endif // NISQPP_TESTS_SUPPORT_NETLIST_SIM_HH
