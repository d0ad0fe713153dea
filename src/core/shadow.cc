#include "core/shadow.hh"

#include <algorithm>
#include <cassert>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace chisel {

ShadowGroup::ShadowGroup(unsigned base, unsigned stride)
    : base_(base), stride_(stride)
{
    panicIf(stride > 16, "ShadowGroup stride too large");
}

bool
ShadowGroup::announce(const Prefix &prefix, NextHop next_hop)
{
    panicIf(prefix.length() < base_ ||
            prefix.length() > base_ + stride_,
            "ShadowGroup member length outside cell range");
    auto [it, inserted] = members_.insert_or_assign(prefix, next_hop);
    (void)it;
    return inserted;
}

std::optional<NextHop>
ShadowGroup::withdraw(const Prefix &prefix)
{
    auto it = members_.find(prefix);
    if (it == members_.end())
        return std::nullopt;
    NextHop nh = it->second;
    members_.erase(it);
    return nh;
}

std::optional<NextHop>
ShadowGroup::find(const Prefix &prefix) const
{
    auto it = members_.find(prefix);
    if (it == members_.end())
        return std::nullopt;
    return it->second;
}

GroupImage
ShadowGroup::computeImage() const
{
    const uint64_t slots = uint64_t(1) << stride_;
    // Per slot: the relative length of the longest covering member
    // (-1 = uncovered) and its next hop.
    std::vector<int> cover_len(slots, -1);
    std::vector<NextHop> cover_hop(slots, kNoRoute);

    for (const auto &[p, nh] : members_) {
        unsigned rel = p.length() - base_;
        uint64_t span = uint64_t(1) << (stride_ - rel);
        uint64_t start = (rel == 0) ? 0
                                    : (p.suffixBits(base_) << (stride_ - rel));
        for (uint64_t v = start; v < start + span; ++v) {
            if (static_cast<int>(rel) > cover_len[v]) {
                cover_len[v] = static_cast<int>(rel);
                cover_hop[v] = nh;
            }
        }
    }

    GroupImage image;
    image.bits.assign(std::max<uint64_t>(1, slots / 64), 0);
    size_t covered = static_cast<size_t>(
        std::count_if(cover_len.begin(), cover_len.end(),
                      [](int len) { return len >= 0; }));
    image.hops.reserve(covered);
    image.lens.reserve(covered);
    for (uint64_t v = 0; v < slots; ++v) {
        if (cover_len[v] >= 0) {
            image.bits[v / 64] |= uint64_t(1) << (v % 64);
            image.hops.push_back(cover_hop[v]);
            image.lens.push_back(static_cast<uint8_t>(cover_len[v]));
        }
    }
    return image;
}

std::optional<Route>
ShadowGroup::longestCover(uint64_t slot) const
{
    assert(slot < (uint64_t(1) << stride_));
    std::optional<Route> best;
    for (const auto &[p, nh] : members_) {
        unsigned rel = p.length() - base_;
        uint64_t suffix = (rel == 0) ? 0 : p.suffixBits(base_);
        if ((slot >> (stride_ - rel)) == suffix) {
            if (!best || p.length() > best->prefix.length())
                best = Route{p, nh};
        }
    }
    return best;
}

} // namespace chisel
