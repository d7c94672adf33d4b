/**
 * @file
 * Exhaustive lookup-table decoder for small lattices. For every possible
 * syndrome it precomputes a minimum-weight correction by brute force over
 * all error patterns, which upper-bounds the accuracy of any trained
 * inference decoder on the same inputs. It stands in for the neural
 * network decoder baseline [6] whose artifacts are not public. Test
 * support: the tests use it as the exact minimum-weight oracle at d = 3.
 */

#ifndef NISQPP_TESTS_SUPPORT_LUT_DECODER_HH
#define NISQPP_TESTS_SUPPORT_LUT_DECODER_HH

#include <cstdint>

#include "decoders/decoder.hh"

namespace nisqpp {

/**
 * Table-driven minimum-weight decoder. Construction cost is
 * O(2^numData); usable up to d = 3 (8192 patterns) and kept assertive
 * beyond that.
 */
class LutDecoder : public Decoder
{
  public:
    LutDecoder(const SurfaceLattice &lattice, ErrorType type);

    using Decoder::decode;
    void decode(const Syndrome &syndrome, TrialWorkspace &ws) override;

    std::string name() const override { return "lut"; }

    /** Number of syndrome entries in the table. */
    std::size_t tableSize() const { return table_.size(); }

  private:
    std::uint32_t syndromeKey(const Syndrome &syndrome) const;

    std::vector<std::uint32_t> table_; ///< syndrome key -> data bitmask
};

} // namespace nisqpp

#endif // NISQPP_TESTS_SUPPORT_LUT_DECODER_HH
