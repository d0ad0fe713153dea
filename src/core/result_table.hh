/**
 * @file
 * Result Table: off-chip next-hop storage with block allocation.
 *
 * Each collapsed-prefix group owns a contiguous region of the Result
 * Table sized for the ones in its bit-vector, slightly
 * over-provisioned to absorb future announces (Section 4.3.2).  The
 * allocator is a segregated power-of-two free-list — the same style
 * of variable-block management trie schemes use for their nodes,
 * which is the comparison the paper makes for update cost.
 *
 * The Result Table is commodity DRAM in the paper's design and is
 * excluded from every scheme's storage totals (Section 5); it is
 * fully modelled here because lookups and updates must exercise it.
 *
 * Each slot is one five-byte word, a next hop plus a tag byte: bit 0
 * of the tag is even parity over the next hop and the tag, and bits
 * 1-5 hold the slot's relative length — the length, above its cell's
 * base, of the prefix whose next hop the slot carries — so a lookup
 * reports its matched length from the same word.  The tag is never
 * persisted: the owning cell re-derives the lengths from its shadow
 * copy on restore, and parity follows.
 */

#ifndef CHISEL_CORE_RESULT_TABLE_HH
#define CHISEL_CORE_RESULT_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "route/prefix.hh"

namespace chisel {

namespace persist { class Encoder; class Decoder; }

/**
 * Next-hop array with power-of-two block allocation.
 */
class ResultTable
{
  public:
    ResultTable() = default;

    /**
     * Allocate a block of at least @p entries slots; the granted size
     * is the next power of two (the over-provisioning policy).
     * @return Base address of the block.
     */
    uint32_t allocate(uint32_t entries);

    /** Return a block obtained from allocate(). */
    void free(uint32_t base, uint32_t entries);

    /** Granted size for a request (next power of two, min 1). */
    static uint32_t grantedSize(uint32_t entries);

    /** Largest relative length a slot can carry (the max stride). */
    static constexpr unsigned kMaxRelLength = 16;

    /** Tag bits holding the relative length. */
    static constexpr unsigned kLengthBits = 5;
    static_assert(kMaxRelLength < (1u << kLengthBits));

    /** Read the next hop at @p addr. */
    NextHop read(uint32_t addr) const;

    /** Relative length stored with the next hop at @p addr. */
    unsigned
    relLength(uint32_t addr) const
    {
        return (words_[addr].tag >> 1) & lowMask(kLengthBits);
    }

    /** Write the next hop and relative length at @p addr. */
    void write(uint32_t addr, NextHop next_hop, unsigned rel_length = 0);

    /**
     * Set only the relative length at @p addr, keeping the next hop
     * and recomputing parity — for a length change under an
     * unchanged next hop, and on restore, where lengths are
     * re-derived rather than persisted.
     */
    void setRelLength(uint32_t addr, unsigned rel_length);

    /**
     * True if @p addr passes its parity check.  One even-parity bit
     * per slot over next hop and relative length, maintained by
     * write(); a soft error is detectable until the slot is
     * rewritten.  False for an address past the table.
     */
    bool parityOk(uint32_t addr) const;

    /**
     * Soft-error model: flip bit @p bit (mod 38) of the word stored
     * at @p addr without updating parity — bits 0-31 are the next
     * hop, 32 the parity bit, 33-37 the relative length.
     */
    void flipBit(uint32_t addr, unsigned bit);

    /** Bits a flipBit() can target in one slot. */
    static constexpr unsigned kWordBits = 38;

    /** Slots currently inside allocated blocks. */
    uint64_t allocatedSlots() const { return allocated_; }

    /** Highest table address ever provisioned + 1. */
    uint64_t highWater() const { return words_.size(); }

    /** Allocations performed (update-cost statistic). */
    uint64_t allocations() const { return allocations_; }

    /** Frees performed. */
    uint64_t frees() const { return frees_; }

    /**
     * Serialize slots, free lists and allocator counters (tags are
     * not: loadState() zeroes every relative length and recomputes
     * parity, and the cells then re-derive their lengths).  Free-list
     * order matters: it decides which base the next allocate() of a
     * class returns.
     */
    void saveState(persist::Encoder &enc) const;

    /** Restore from saveState(); throws persist::DecodeError. */
    void loadState(persist::Decoder &dec);

  private:
    /**
     * One Result word, packed to five bytes so that a single read —
     * one cache line, bar the rare word straddling two — serves the
     * next hop, its length and their check.
     */
    struct [[gnu::packed]] Word
    {
        NextHop hop;
        uint8_t tag;   ///< Parity bit + relative length.
    };
    static_assert(sizeof(Word) == 5, "a Result word is five bytes");

    /** The word for (@p next_hop, @p rel_length), with its parity. */
    static Word
    makeWord(NextHop next_hop, unsigned rel_length)
    {
        uint8_t t = static_cast<uint8_t>(rel_length << 1);
        t |= static_cast<uint8_t>(
            popcount64((uint64_t(t) << 32) | next_hop) & 1u);
        return Word{next_hop, t};
    }

    std::vector<Word> words_;
    /** freeLists_[c] holds bases of free blocks of size 2^c. */
    std::vector<std::vector<uint32_t>> freeLists_;
    uint64_t allocated_ = 0;
    uint64_t allocations_ = 0;
    uint64_t frees_ = 0;
};

} // namespace chisel

#endif // CHISEL_CORE_RESULT_TABLE_HH
