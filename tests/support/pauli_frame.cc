#include "support/pauli_frame.hh"

#include "common/logging.hh"

namespace nisqpp {

PauliFrame::PauliFrame(std::size_t num_qubits)
    : x_(num_qubits), z_(num_qubits)
{
}

void
PauliFrame::clear()
{
    x_.clear();
    z_.clear();
}

void
PauliFrame::reset(std::size_t q)
{
    checkIndex(q);
    x_.set(q, false);
    z_.set(q, false);
}

void
PauliFrame::inject(std::size_t q, Pauli p)
{
    checkIndex(q);
    if (hasX(p))
        x_.flip(q);
    if (hasZ(p))
        z_.flip(q);
}

Pauli
PauliFrame::frame(std::size_t q) const
{
    checkIndex(q);
    return fromXZ(x_.get(q), z_.get(q));
}

void
PauliFrame::applyH(std::size_t q)
{
    checkIndex(q);
    const bool x = x_.get(q);
    x_.set(q, z_.get(q));
    z_.set(q, x);
}

void
PauliFrame::applyS(std::size_t q)
{
    checkIndex(q);
    // S X S^dag = Y: an X component gains a Z component.
    if (x_.get(q))
        z_.flip(q);
}

void
PauliFrame::applyCnot(std::size_t control, std::size_t target)
{
    checkIndex(control);
    checkIndex(target);
    NISQPP_DCHECK(control != target, "applyCnot: control == target");
    if (x_.get(control))
        x_.flip(target);
    if (z_.get(target))
        z_.flip(control);
}

void
PauliFrame::applyCz(std::size_t a, std::size_t b)
{
    checkIndex(a);
    checkIndex(b);
    NISQPP_DCHECK(a != b, "applyCz: identical operands");
    if (x_.get(a))
        z_.flip(b);
    if (x_.get(b))
        z_.flip(a);
}

bool
PauliFrame::measureZ(std::size_t q)
{
    checkIndex(q);
    const bool flipped = x_.get(q);
    x_.set(q, false);
    z_.set(q, false);
    return flipped;
}

} // namespace nisqpp
