/**
 * @file
 * Filter Table: stored keys that eliminate false positives.
 *
 * The Bloomier Index Table returns *some* pointer for every query,
 * including keys never inserted.  Chisel stores the actual collapsed
 * prefix at the pointed-to Filter Table slot and compares it against
 * the collapsed lookup key; a mismatch is a false positive and the
 * lookup result is discarded (Section 4.2).  This is the storage /
 * correctness trade the paper makes instead of Bloomier checksums:
 * false positives become impossible rather than merely improbable.
 *
 * Each entry also carries the dirty bit of the route-flap
 * optimisation (Section 4.4.1): a withdrawn group is marked dirty and
 * retained so a flap can restore it without touching the Index Table.
 *
 * Every entry is protected by one even-parity bit over its key and
 * flags, maintained on legitimate writes; a soft error (bit flip) is
 * detectable until the entry is rewritten, and the lookup path falls
 * back to the shadow copy when a check fails.
 */

#ifndef CHISEL_CORE_FILTER_TABLE_HH
#define CHISEL_CORE_FILTER_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/key128.hh"

namespace chisel {

namespace persist { class Encoder; class Decoder; }

/**
 * Fixed-capacity table of collapsed prefixes with a slot free-list.
 */
class FilterTable
{
  public:
    /**
     * @param capacity Number of slots (n in the paper's sizing).
     * @param key_bits Width of the stored collapsed prefixes.
     */
    FilterTable(size_t capacity, unsigned key_bits);

    /** Allocate a slot.  @return slot index, or -1 if full. */
    int64_t allocate();

    /** Release a slot back to the free list. */
    void release(uint32_t slot);

    /** Install @p key at @p slot and mark it valid and clean. */
    void set(uint32_t slot, const Key128 &key);

    /** True if @p slot is valid and stores exactly @p key. */
    bool matches(uint32_t slot, const Key128 &key) const;

    /** True if @p slot currently holds a key. */
    bool valid(uint32_t slot) const { return entries_[slot].valid; }

    /** The key stored at @p slot. */
    const Key128 &keyAt(uint32_t slot) const { return entries_[slot].key; }

    /** Dirty flag (withdrawn-but-retained group). */
    bool dirty(uint32_t slot) const { return entries_[slot].dirty; }
    void setDirty(uint32_t slot, bool dirty);

    /** True if @p slot passes its parity check. */
    bool
    parityOk(uint32_t slot) const
    {
        const Entry &e = entries_[slot];
        return entryParity(e) == e.parity;
    }

    /**
     * Soft-error model: flip bit @p bit of the key stored at @p slot
     * without updating parity (detectable until rewritten).
     */
    void flipKeyBit(uint32_t slot, unsigned bit);

    /**
     * Restore @p slot to the pristine empty state (recovery path:
     * scrubs any soft error in a slot no group owns).  Free-list
     * membership is not affected.
     */
    void resetSlot(uint32_t slot);

    /** Slots in use (valid). */
    size_t used() const { return used_; }

    /** Free slots remaining. */
    size_t available() const { return freeList_.size(); }

    size_t capacity() const { return entries_.size(); }

    /** Slot width in bits: key plus valid and dirty flags. */
    unsigned slotWidthBits() const { return keyBits_ + 2; }

    /** Total storage in bits. */
    uint64_t storageBits() const;

    /**
     * Serialize entries and the free list (its order determines
     * which slot the next allocate() hands out, so it must survive a
     * restart for determinism).  Parity is recomputed on load.
     */
    void saveState(persist::Encoder &enc) const;

    /** Restore from saveState(); throws persist::DecodeError. */
    void loadState(persist::Decoder &dec);

  private:
    /**
     * One Filter word.  The parity bit sits in the padding after the
     * flags, so the check reads the same cache line as the compare.
     */
    struct Entry
    {
        Key128 key;
        bool valid = false;
        bool dirty = false;
        uint8_t parity = 0;   ///< Even parity over key and flags.
    };
    static_assert(sizeof(Entry) == 24,
                  "the parity bit must fit in Entry's padding");

    /** Even parity over an entry's key bits and flags. */
    static uint8_t
    entryParity(const Entry &e)
    {
        return static_cast<uint8_t>(
            (e.key.popcount() + (e.valid ? 1u : 0u) +
             (e.dirty ? 1u : 0u)) & 1u);
    }

    /** Recompute the stored parity of @p slot after a legal write. */
    void
    refreshParity(uint32_t slot)
    {
        entries_[slot].parity = entryParity(entries_[slot]);
    }

    unsigned keyBits_;
    std::vector<Entry> entries_;
    std::vector<uint32_t> freeList_;
    size_t used_ = 0;
};

} // namespace chisel

#endif // CHISEL_CORE_FILTER_TABLE_HH
