/**
 * @file
 * Pauli-frame simulator for Clifford circuits (test support).
 *
 * The stabilizer circuits of paper Fig. 3 are Clifford circuits; Pauli
 * errors injected anywhere propagate through them by conjugation. Tracking
 * only the Pauli frame (one X bit and one Z bit per qubit) reproduces the
 * measurement-outcome *flips* relative to the noiseless run, in O(1) per
 * gate. The tests use it to walk the stabilizer schedule gate by gate as
 * an oracle for the library's direct parity extraction.
 */

#ifndef NISQPP_TESTS_SUPPORT_PAULI_FRAME_HH
#define NISQPP_TESTS_SUPPORT_PAULI_FRAME_HH

#include <cstddef>

#include "common/packed_bits.hh"
#include "pauli/pauli.hh"

namespace nisqpp {

/**
 * Tracks a Pauli error frame across an n-qubit Clifford circuit.
 *
 * Conjugation rules implemented (phase-free):
 *  - H:    X <-> Z
 *  - S:    X -> Y (i.e. X gains a Z component)
 *  - CNOT: X on control copies to target, Z on target copies to control
 *  - CZ:   X on one qubit adds Z on the other
 */
class PauliFrame
{
  public:
    /** @param num_qubits Number of qubits tracked by the frame. */
    explicit PauliFrame(std::size_t num_qubits);

    std::size_t numQubits() const { return x_.size(); }

    /** Reset the whole frame to identity. */
    void clear();

    /** Reset one qubit's frame (e.g. after ancilla re-initialization). */
    void reset(std::size_t q);

    /** Multiply @p p into qubit @p q's frame (error injection). */
    void inject(std::size_t q, Pauli p);

    /** Current frame on qubit @p q. */
    Pauli frame(std::size_t q) const;

    /** Whether the frame on @p q has an X component. */
    bool xBit(std::size_t q) const { return x_.get(q); }

    /** Whether the frame on @p q has a Z component. */
    bool zBit(std::size_t q) const { return z_.get(q); }

    /** @name Clifford gate conjugations @{ */
    void applyH(std::size_t q);
    void applyS(std::size_t q);
    void applyCnot(std::size_t control, std::size_t target);
    void applyCz(std::size_t a, std::size_t b);
    /** @} */

    /**
     * Measure qubit @p q in the Z basis.
     *
     * @return true when the outcome is flipped relative to the noiseless
     *         circuit, i.e. when the frame has an X component on @p q.
     *         Measurement collapses the frame's X part on @p q (the Z
     *         part is unobservable afterwards and is also cleared).
     */
    bool measureZ(std::size_t q);

  private:
    void
    checkIndex(std::size_t q) const
    {
        NISQPP_DCHECK(q < x_.size(),
                      "PauliFrame: qubit index out of range");
    }

    PackedBits x_;
    PackedBits z_;
};

} // namespace nisqpp

#endif // NISQPP_TESTS_SUPPORT_PAULI_FRAME_HH
