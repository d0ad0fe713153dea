#include "core/result_table.hh"

#include <cassert>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "persist/codec.hh"
#include "telemetry/trace.hh"

namespace chisel {

uint32_t
ResultTable::grantedSize(uint32_t entries)
{
    if (entries <= 1)
        return 1;
    return static_cast<uint32_t>(nextPow2(entries));
}

uint32_t
ResultTable::allocate(uint32_t entries)
{
    uint32_t size = grantedSize(entries);
    unsigned cls = ceilLog2(size);
    if (freeLists_.size() <= cls)
        freeLists_.resize(cls + 1);

    ++allocations_;
    allocated_ += size;

    auto &list = freeLists_[cls];
    if (!list.empty()) {
        uint32_t base = list.back();
        list.pop_back();
        return base;
    }
    uint32_t base = static_cast<uint32_t>(words_.size());
    words_.resize(words_.size() + size, makeWord(kNoRoute, 0));
    return base;
}

void
ResultTable::free(uint32_t base, uint32_t entries)
{
    uint32_t size = grantedSize(entries);
    unsigned cls = ceilLog2(size);
    panicIf(freeLists_.size() <= cls,
            "ResultTable::free of a never-allocated size class");
    panicIf(allocated_ < size, "ResultTable::free accounting underflow");
    freeLists_[cls].push_back(base);
    allocated_ -= size;
    ++frees_;
}

NextHop
ResultTable::read(uint32_t addr) const
{
    panicIf(addr >= words_.size(), "ResultTable read out of range");
    CHISEL_TRACE_ACCESS(Result, addr, sizeof(NextHop));
    return words_[addr].hop;
}

void
ResultTable::write(uint32_t addr, NextHop next_hop, unsigned rel_length)
{
    panicIf(addr >= words_.size(), "ResultTable write out of range");
    panicIf(rel_length > kMaxRelLength,
            "ResultTable relative length out of range");
    CHISEL_TRACE_WRITE(Result, addr, sizeof(NextHop));
    words_[addr] = makeWord(next_hop, rel_length);
}

void
ResultTable::setRelLength(uint32_t addr, unsigned rel_length)
{
    panicIf(addr >= words_.size(), "ResultTable write out of range");
    panicIf(rel_length > kMaxRelLength,
            "ResultTable relative length out of range");
    words_[addr] = makeWord(words_[addr].hop, rel_length);
}

bool
ResultTable::parityOk(uint32_t addr) const
{
    // An address past the table can only come from a corrupted
    // Bit-vector entry whose flips cancelled in its own check.
    if (addr >= words_.size())
        return false;
    // The tag's own parity bit joins the popcount: an intact word
    // (next hop, length and parity bit) has even weight.
    const Word w = words_[addr];
    return (popcount64((uint64_t(w.tag) << 32) | w.hop) & 1u) == 0;
}

void
ResultTable::saveState(persist::Encoder &enc) const
{
    enc.u64(words_.size());
    for (const Word &w : words_)
        enc.u32(w.hop);
    enc.u64(freeLists_.size());
    for (const auto &list : freeLists_) {
        enc.u64(list.size());
        for (uint32_t base : list)
            enc.u32(base);
    }
    enc.u64(allocated_);
    enc.u64(allocations_);
    enc.u64(frees_);
}

void
ResultTable::loadState(persist::Decoder &dec)
{
    uint64_t n = dec.count(4);
    words_.assign(n, makeWord(kNoRoute, 0));
    for (uint64_t i = 0; i < n; ++i)
        words_[i] = makeWord(dec.u32(), 0);
    uint64_t classes = dec.count(8);
    if (classes > 33)
        throw persist::DecodeError("result table: too many size classes");
    freeLists_.assign(classes, {});
    for (uint64_t c = 0; c < classes; ++c) {
        uint64_t blocks = dec.count(4);
        freeLists_[c].reserve(blocks);
        for (uint64_t b = 0; b < blocks; ++b) {
            uint32_t base = dec.u32();
            if (base >= n && n > 0)
                throw persist::DecodeError(
                    "result table: free block out of range");
            freeLists_[c].push_back(base);
        }
    }
    allocated_ = dec.u64();
    allocations_ = dec.u64();
    frees_ = dec.u64();
    if (allocated_ > n)
        throw persist::DecodeError(
            "result table: allocation accounting exceeds high water");
}

void
ResultTable::flipBit(uint32_t addr, unsigned bit)
{
    panicIf(addr >= words_.size(), "ResultTable flip out of range");
    unsigned pos = bit % kWordBits;
    if (pos < 32)
        words_[addr].hop ^= NextHop(1) << pos;
    else
        words_[addr].tag ^= static_cast<uint8_t>(1u << (pos - 32));
}

} // namespace chisel
