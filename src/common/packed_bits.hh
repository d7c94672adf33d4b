/**
 * @file
 * Word-packed bitset shared by every per-trial hot path: error states,
 * Pauli frames and syndromes all store one bit per qubit/ancilla in
 * uint64_t words, so composition is a word-wise XOR, weights are
 * popcounts and stabilizer parities are AND + popcount against
 * precomputed masks — the same row-per-word trick the mesh simulator
 * uses (`src/core/mesh_decoder.hh`), lifted into a reusable type.
 *
 * Invariant: bits at positions >= size() are always zero, so whole-word
 * reductions (popcount, parity, equality) never see garbage and
 * operator== is plain word comparison.
 */

#ifndef NISQPP_COMMON_PACKED_BITS_HH
#define NISQPP_COMMON_PACKED_BITS_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace nisqpp {

/** Fixed-size bitset packed 64 bits per word. */
class PackedBits
{
  public:
    using Word = std::uint64_t;
    static constexpr std::size_t kWordBits = 64;

    PackedBits() = default;

    /** All-zero bitset of @p size bits. */
    explicit PackedBits(std::size_t size) { resize(size); }

    /** Resize to @p size bits; all bits reset to zero. */
    void
    resize(std::size_t size)
    {
        size_ = size;
        words_.assign((size + kWordBits - 1) / kWordBits, 0);
    }

    std::size_t size() const { return size_; }

    /** Zero every bit, keeping the size. */
    void
    clear()
    {
        std::fill(words_.begin(), words_.end(), Word{0});
    }

    /** Unchecked bit read (debug-asserted). */
    bool
    get(std::size_t i) const
    {
        NISQPP_DCHECK(i < size_, "PackedBits::get: index out of range");
        return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
    }

    /** Bounds-checked bit read for user-facing paths. */
    bool
    test(std::size_t i) const
    {
        require(i < size_, "PackedBits::test: index out of range");
        return get(i);
    }

    /** Unchecked bit write (debug-asserted). */
    void
    set(std::size_t i, bool v)
    {
        NISQPP_DCHECK(i < size_, "PackedBits::set: index out of range");
        const Word mask = Word{1} << (i % kWordBits);
        if (v)
            words_[i / kWordBits] |= mask;
        else
            words_[i / kWordBits] &= ~mask;
    }

    /** Unchecked bit toggle (debug-asserted). */
    void
    flip(std::size_t i)
    {
        NISQPP_DCHECK(i < size_, "PackedBits::flip: index out of range");
        words_[i / kWordBits] ^= Word{1} << (i % kWordBits);
    }

    /** XOR-compose @p other into this bitset (sizes must match). */
    void
    xorWith(const PackedBits &other)
    {
        NISQPP_DCHECK(other.size_ == size_,
                      "PackedBits::xorWith: size mismatch");
        for (std::size_t w = 0; w < words_.size(); ++w)
            words_[w] ^= other.words_[w];
    }

    /** Clear every bit set in @p mask (sizes must match). */
    void
    andNotWith(const PackedBits &mask)
    {
        NISQPP_DCHECK(mask.size_ == size_,
                      "PackedBits::andNotWith: size mismatch");
        for (std::size_t w = 0; w < words_.size(); ++w)
            words_[w] &= ~mask.words_[w];
    }

    /** Number of set bits. */
    int
    popcount() const
    {
        int count = 0;
        for (Word w : words_)
            count += std::popcount(w);
        return count;
    }

    /** Number of set bits in the intersection with @p mask. */
    int
    popcountAnd(const PackedBits &mask) const
    {
        NISQPP_DCHECK(mask.size_ == size_,
                      "PackedBits::popcountAnd: size mismatch");
        int count = 0;
        for (std::size_t w = 0; w < words_.size(); ++w)
            count += std::popcount(words_[w] & mask.words_[w]);
        return count;
    }

    /** Parity of the intersection with @p mask: the stabilizer check. */
    bool
    parityAnd(const PackedBits &mask) const
    {
        NISQPP_DCHECK(mask.size_ == size_,
                      "PackedBits::parityAnd: size mismatch");
        Word acc = 0;
        for (std::size_t w = 0; w < words_.size(); ++w)
            acc ^= words_[w] & mask.words_[w];
        return std::popcount(acc) & 1;
    }

    /** Number of set bits in the union of @p a and @p b. */
    static int
    popcountOr(const PackedBits &a, const PackedBits &b)
    {
        NISQPP_DCHECK(a.size_ == b.size_,
                      "PackedBits::popcountOr: size mismatch");
        int count = 0;
        for (std::size_t w = 0; w < a.words_.size(); ++w)
            count += std::popcount(a.words_[w] | b.words_[w]);
        return count;
    }

    bool
    any() const
    {
        for (Word w : words_)
            if (w)
                return true;
        return false;
    }

    /** Invoke @p f(int index) on every set bit, ascending. */
    template <typename F>
    void
    forEachSet(F &&f) const
    {
        for (std::size_t wi = 0; wi < words_.size(); ++wi) {
            Word w = words_[wi];
            while (w) {
                const int bit = std::countr_zero(w);
                w &= w - 1;
                f(static_cast<int>(wi * kWordBits) + bit);
            }
        }
    }

    /** Read-only word view for tight reduction loops. */
    const Word *words() const { return words_.data(); }

    bool operator==(const PackedBits &other) const = default;

  private:
    std::size_t size_ = 0;
    std::vector<Word> words_;
};

} // namespace nisqpp

#endif // NISQPP_COMMON_PACKED_BITS_HH
