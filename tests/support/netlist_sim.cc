#include "support/netlist_sim.hh"

#include <algorithm>

#include "common/logging.hh"

namespace nisqpp {

NetlistSim::NetlistSim(const Netlist &netlist)
    : netlist_(&netlist),
      state_(netlist.numNodes(), 0),
      next_(netlist.numNodes(), 0)
{
    for (NodeId id : netlist.inputs())
        inputIndex_[netlist.node(id).name] = id;
    for (const auto &[id, name] : netlist.outputs())
        outputIndex_[name] = id;
    // Validate connectivity up front (also catches open state DFFs).
    for (NodeId v = 0; v < static_cast<NodeId>(netlist.numNodes()); ++v) {
        const auto &node = netlist.node(v);
        if (node.kind != CellKind::Input)
            require(static_cast<int>(node.fanin.size()) ==
                        cellArity(node.kind),
                    "NetlistSim: node with unconnected fanin");
    }
}

void
NetlistSim::reset()
{
    std::fill(state_.begin(), state_.end(), 0);
    std::fill(next_.begin(), next_.end(), 0);
}

void
NetlistSim::setInput(const std::string &name, bool value)
{
    const auto it = inputIndex_.find(name);
    require(it != inputIndex_.end(), "NetlistSim: unknown input " + name);
    state_[it->second] = value;
}

void
NetlistSim::clock()
{
    const auto n = static_cast<NodeId>(netlist_->numNodes());
    for (NodeId v = 0; v < n; ++v) {
        const auto &node = netlist_->node(v);
        if (node.kind == CellKind::Input) {
            next_[v] = state_[v]; // inputs are held externally
            continue;
        }
        const bool a = state_[node.fanin[0]];
        const bool b =
            node.fanin.size() > 1 ? state_[node.fanin[1]] : false;
        next_[v] = evalCell(node.kind, a, b);
    }
    std::swap(state_, next_);
}

void
NetlistSim::run(int cycles)
{
    for (int i = 0; i < cycles; ++i)
        clock();
}

bool
NetlistSim::output(const std::string &name) const
{
    const auto it = outputIndex_.find(name);
    require(it != outputIndex_.end(),
            "NetlistSim: unknown output " + name);
    return state_[it->second];
}

} // namespace nisqpp
