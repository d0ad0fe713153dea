#include "hash/h3.hh"

#include <algorithm>
#include <cassert>

#include "common/bitops.hh"
#include "common/random.hh"

namespace chisel {

H3Hash::H3Hash(unsigned out_bits, uint64_t seed)
    : outBits_(out_bits)
{
    assert(out_bits >= 1 && out_bits <= 64);
    // The random matrix: 128 rows for key bits plus 8 rows for the
    // length byte, drawn in that order from the seed.
    const uint64_t out_mask = lowMask(out_bits);
    std::array<uint64_t, Key128::maxBits + 8> rows;
    uint64_t state = seed;
    for (auto &row : rows)
        row = splitmix64(state) & out_mask;

    for (unsigned i = 0; i < kNibbles; ++i) {
        for (unsigned v = 0; v < 16; ++v) {
            uint64_t h = 0;
            for (unsigned j = 0; j < 4; ++j) {
                if ((v >> (3 - j)) & 1)
                    h ^= rows[4 * i + j];
            }
            nibble_[i][v] = h;
        }
    }
    for (unsigned len = 0; len <= Key128::maxBits; ++len) {
        uint64_t h = 0;
        for (unsigned i = 0; i < 8; ++i) {
            if ((len >> i) & 1)
                h ^= rows[Key128::maxBits + i];
        }
        lenFold_[len] = h;
    }
}

uint64_t
H3Hash::hash(const Key128 &key, unsigned len) const
{
    assert(len <= Key128::maxBits);
    uint64_t h = lenFold_[len];

    // Only the nibbles holding the top len bits are read; bits at
    // positions >= len are masked off first.
    const uint64_t hi = key.hi() & highMask(std::min(len, 64u));
    const uint64_t lo = len > 64 ? key.lo() & highMask(len - 64) : 0;
    const unsigned nibbles = (len + 3) / 4;
    const unsigned hi_nibbles = std::min(nibbles, kNibbles / 2);
    for (unsigned i = 0; i < hi_nibbles; ++i)
        h ^= nibble_[i][(hi >> (60 - 4 * i)) & 0xF];
    for (unsigned i = hi_nibbles; i < nibbles; ++i)
        h ^= nibble_[i][(lo >> (60 - 4 * (i - kNibbles / 2))) & 0xF];
    return h;
}

H3Family::H3Family(unsigned k, unsigned out_bits, uint64_t seed)
{
    fns_.reserve(k);
    uint64_t state = seed;
    for (unsigned i = 0; i < k; ++i)
        fns_.emplace_back(out_bits, splitmix64(state));
}

std::vector<uint64_t>
H3Family::hashAll(const Key128 &key, unsigned len) const
{
    std::vector<uint64_t> out(fns_.size());
    for (size_t i = 0; i < fns_.size(); ++i)
        out[i] = fns_[i].hash(key, len);
    return out;
}

} // namespace chisel
