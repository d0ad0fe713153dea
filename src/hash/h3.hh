/**
 * @file
 * H3 universal hash functions.
 *
 * The H3 class of hash functions computes h(x) = XOR of the rows of a
 * random bit matrix selected by the set bits of x.  H3 is the standard
 * choice for hardware lookup engines (it is a tree of XOR gates, one
 * level deep per matrix column) and is what the Chisel FPGA prototype
 * uses for its Index Table segments.  Each function is defined by a
 * seed; the k functions of an engine use k independent seeds.
 *
 * Keys here are (Key128, length) pairs: a collapsed prefix of a given
 * bit length.  The length participates in the hash through eight extra
 * matrix rows so that keys of different lengths never alias, even when
 * their defined bits agree.
 *
 * The software evaluation is table-driven: the constructor folds each
 * group of four matrix rows into a 16-entry table indexed by the
 * matching key nibble, and the eight length rows into one word per
 * possible length.  A hash is then ceil(len/4) table reads and XORs
 * instead of one branch per key bit, with outputs bit-identical to the
 * row-by-row definition above.
 */

#ifndef CHISEL_HASH_H3_HH
#define CHISEL_HASH_H3_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/key128.hh"

namespace chisel {

/**
 * One H3 hash function over (key, length) pairs.
 */
class H3Hash
{
  public:
    /**
     * @param out_bits Width of the hash output in bits (1..64).
     * @param seed Seed selecting the random matrix.
     */
    H3Hash(unsigned out_bits, uint64_t seed);

    /**
     * Hash the top @p len bits of @p key.
     * Bits at positions >= len are ignored (callers pass collapsed
     * prefixes whose trailing bits are already zero, but masking here
     * keeps the function total).
     */
    uint64_t hash(const Key128 &key, unsigned len) const;

    /** Output width in bits. */
    unsigned outBits() const { return outBits_; }

  private:
    /** Key nibbles: 128 key bits, four matrix rows per table. */
    static constexpr unsigned kNibbles = Key128::maxBits / 4;

    unsigned outBits_;
    /**
     * nibble_[i][v]: XOR of the rows of key bits 4i..4i+3 selected by
     * the nibble value @c v (its most significant bit is key bit 4i).
     */
    std::array<std::array<uint64_t, 16>, kNibbles> nibble_;
    /** lenFold_[len]: XOR of the length rows selected by @c len. */
    std::array<uint64_t, Key128::maxBits + 1> lenFold_;
};

/**
 * A family of k independent H3 functions, as used by Bloom, Bloomier
 * and multiple-choice hash structures.
 */
class H3Family
{
  public:
    /**
     * @param k Number of functions.
     * @param out_bits Output width of every function.
     * @param seed Family seed; function i is seeded with a value
     *             derived from (seed, i).
     */
    H3Family(unsigned k, unsigned out_bits, uint64_t seed);

    /** Number of functions in the family. */
    unsigned size() const { return static_cast<unsigned>(fns_.size()); }

    /** Value of function @p i on the top @p len bits of @p key. */
    uint64_t
    hash(unsigned i, const Key128 &key, unsigned len) const
    {
        return fns_[i].hash(key, len);
    }

    /** All k hash values of a key, in function order. */
    std::vector<uint64_t> hashAll(const Key128 &key, unsigned len) const;

  private:
    std::vector<H3Hash> fns_;
};

} // namespace chisel

#endif // CHISEL_HASH_H3_HH
