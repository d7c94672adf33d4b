/**
 * @file
 * The stabilizer measurement circuits of paper Fig. 3, executed gate by
 * gate on the Pauli-frame simulator (test support). An X-stabilizer
 * round applies H on the ancilla, CNOTs from the ancilla onto its data
 * neighbors, H, then measures; a Z-stabilizer round applies CNOTs from
 * the data neighbors into the ancilla and measures. One full cycle
 * measures every ancilla.
 *
 * The library extracts syndromes by direct parity; this slow,
 * obviously-right walk of the schedule is the oracle the tests pin that
 * parity against.
 */

#ifndef NISQPP_TESTS_SUPPORT_STABILIZER_CIRCUIT_HH
#define NISQPP_TESTS_SUPPORT_STABILIZER_CIRCUIT_HH

#include <vector>

#include "support/pauli_frame.hh"
#include "surface/lattice.hh"
#include "surface/syndrome.hh"

namespace nisqpp {

/**
 * Executable schedule of one full stabilizer measurement cycle on a
 * lattice. Frame qubits are grid sites (data and ancilla alike).
 */
class StabilizerCircuit
{
  public:
    /** Elementary operations of the schedule. */
    enum class OpKind : unsigned char
    {
        H,       ///< Hadamard on `a`
        Cnot,    ///< CNOT with control `a`, target `b`
        Measure, ///< Z measurement of ancilla `a`, result index `b`
        Reset,   ///< ancilla re-initialization of `a`
    };

    struct Op
    {
        OpKind kind;
        int a;
        int b;
    };

    explicit StabilizerCircuit(const SurfaceLattice &lattice);

    /** The schedule for the ancilla family detecting @p type errors. */
    const std::vector<Op> &schedule(ErrorType type) const;

    /**
     * Inject @p state's data errors into @p frame (frame must span
     * lattice().numSites() qubits).
     */
    void loadErrors(PauliFrame &frame, const ErrorState &state) const;

    /**
     * Run one measurement round of the family detecting @p type on
     * @p frame by walking schedule() op by op, and return the resulting
     * syndrome. Measurement outcomes are reported as flips relative to
     * the noiseless circuit, exactly the detection events of Section
     * II-C1.
     */
    Syndrome measure(PauliFrame &frame, ErrorType type) const;

    /** Full extraction through the circuits for @p state. */
    Syndrome extract(const ErrorState &state, ErrorType type) const;

  private:
    void buildSchedule(ErrorType type);

    const SurfaceLattice *lattice_;
    std::vector<Op> scheduleX_; ///< detects Z errors (X ancillas)
    std::vector<Op> scheduleZ_; ///< detects X errors (Z ancillas)
};

} // namespace nisqpp

#endif // NISQPP_TESTS_SUPPORT_STABILIZER_CIRCUIT_HH
