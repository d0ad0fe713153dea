/**
 * @file
 * Small bit-manipulation helpers shared across the library.
 */

#ifndef CHISEL_COMMON_BITOPS_HH
#define CHISEL_COMMON_BITOPS_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace chisel {

/** Number of set bits in @p v. */
inline unsigned
popcount64(uint64_t v)
{
    return static_cast<unsigned>(std::popcount(v));
}

/** ceil(log2(v)) for v >= 1; the number of bits needed to count v states. */
inline unsigned
ceilLog2(uint64_t v)
{
    assert(v >= 1);
    if (v == 1)
        return 0;
    return 64 - static_cast<unsigned>(std::countl_zero(v - 1));
}

/** The number of address bits needed to index @p entries locations. */
inline unsigned
addressBits(uint64_t entries)
{
    return entries <= 1 ? 1 : ceilLog2(entries);
}

/** Smallest power of two >= v (v >= 1). */
inline uint64_t
nextPow2(uint64_t v)
{
    assert(v >= 1);
    return uint64_t(1) << ceilLog2(v);
}

/** True if v is a power of two (v >= 1). */
inline bool
isPow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Integer division rounding up. */
inline uint64_t
divCeil(uint64_t a, uint64_t b)
{
    assert(b != 0);
    return (a + b - 1) / b;
}

/** Mask with the low @p n bits set (n <= 64). */
inline uint64_t
lowMask(unsigned n)
{
    assert(n <= 64);
    return n == 64 ? ~uint64_t(0) : ((uint64_t(1) << n) - 1);
}

/** Mask with the high @p n bits set (n <= 64). */
inline uint64_t
highMask(unsigned n)
{
    assert(n <= 64);
    return n == 0 ? 0 : ~uint64_t(0) << (64 - n);
}

/**
 * Exact @c x % d by multiplication, for a divisor fixed up front
 * (Lemire, Kaser and Kurz, "Faster Remainder by Direct Computation",
 * 2019).  With the 128-bit magic M = ceil(2^128 / d),
 * x % d = (((M * x) mod 2^128) * d) >> 128, exact for every 64-bit
 * @c x and every divisor d >= 1, since 128 >= 64 + log2(d).
 */
class FastMod
{
  public:
    __extension__ typedef unsigned __int128 U128;

    explicit FastMod(uint64_t d = 1)
        : d_(d), m_(~U128(0) / d + 1)   // d = 1 wraps M to 0: x % 1 = 0.
    {
        assert(d >= 1);
    }

    /** @c x % divisor(). */
    uint64_t
    operator()(uint64_t x) const
    {
        U128 low = m_ * x;
        U128 mid = (U128(static_cast<uint64_t>(low)) * d_) >> 64;
        return static_cast<uint64_t>(
            (U128(static_cast<uint64_t>(low >> 64)) * d_ + mid) >> 64);
    }

  private:
    uint64_t d_;
    U128 m_;
};

} // namespace chisel

#endif // CHISEL_COMMON_BITOPS_HH
