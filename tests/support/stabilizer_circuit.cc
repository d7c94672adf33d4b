#include "support/stabilizer_circuit.hh"

#include "common/logging.hh"

namespace nisqpp {

StabilizerCircuit::StabilizerCircuit(const SurfaceLattice &lattice)
    : lattice_(&lattice)
{
    buildSchedule(ErrorType::Z);
    buildSchedule(ErrorType::X);
}

void
StabilizerCircuit::buildSchedule(ErrorType type)
{
    const SurfaceLattice &lat = *lattice_;
    auto &sched = (type == ErrorType::Z) ? scheduleX_ : scheduleZ_;
    sched.clear();

    for (int a = 0; a < lat.numAncilla(type); ++a) {
        const int anc_site = lat.siteIndex(lat.ancillaCoord(type, a));
        sched.push_back({OpKind::Reset, anc_site, 0});
        if (type == ErrorType::Z) {
            // X stabilizer: |0> -H-> |+>, CNOT(ancilla -> data)*, H, MZ.
            sched.push_back({OpKind::H, anc_site, 0});
            for (int d : lat.ancillaDataNeighbors(type, a)) {
                const int data_site = lat.siteIndex(lat.dataCoord(d));
                sched.push_back({OpKind::Cnot, anc_site, data_site});
            }
            sched.push_back({OpKind::H, anc_site, 0});
        } else {
            // Z stabilizer: CNOT(data -> ancilla)*, MZ.
            for (int d : lat.ancillaDataNeighbors(type, a)) {
                const int data_site = lat.siteIndex(lat.dataCoord(d));
                sched.push_back({OpKind::Cnot, data_site, anc_site});
            }
        }
        sched.push_back({OpKind::Measure, anc_site, a});
    }
}

const std::vector<StabilizerCircuit::Op> &
StabilizerCircuit::schedule(ErrorType type) const
{
    return type == ErrorType::Z ? scheduleX_ : scheduleZ_;
}

void
StabilizerCircuit::loadErrors(PauliFrame &frame, const ErrorState &state)
    const
{
    const SurfaceLattice &lat = *lattice_;
    require(frame.numQubits() ==
                static_cast<std::size_t>(lat.numSites()),
            "loadErrors: frame size mismatch");
    for (int d = 0; d < lat.numData(); ++d)
        frame.inject(lat.siteIndex(lat.dataCoord(d)), state.at(d));
}

Syndrome
StabilizerCircuit::measure(PauliFrame &frame, ErrorType type) const
{
    require(frame.numQubits() ==
                static_cast<std::size_t>(lattice_->numSites()),
            "measure: frame size mismatch");
    Syndrome syn(*lattice_, type);
    for (const Op &op : schedule(type)) {
        switch (op.kind) {
          case OpKind::Reset:
            frame.reset(op.a);
            break;
          case OpKind::H:
            frame.applyH(op.a);
            break;
          case OpKind::Cnot:
            frame.applyCnot(op.a, op.b);
            break;
          case OpKind::Measure:
            syn.set(op.b, frame.measureZ(op.a));
            break;
        }
    }
    return syn;
}

Syndrome
StabilizerCircuit::extract(const ErrorState &state, ErrorType type) const
{
    PauliFrame frame(lattice_->numSites());
    loadErrors(frame, state);
    return measure(frame, type);
}

} // namespace nisqpp
