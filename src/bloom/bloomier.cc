#include "bloom/bloomier.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "persist/codec.hh"
#include "telemetry/trace.hh"

namespace chisel {

BloomierFilter::BloomierFilter(size_t capacity,
                               const BloomierConfig &config)
    : capacity_(std::max<size_t>(capacity, 1)),
      config_(config),
      partitions_(std::max(1u, config.partitions)),
      family_(config.k, 64, config.seed),
      checksum_(std::max(1u, ceilLog2(std::max(
          1u, config.partitions))), config.seed ^ 0x5eedc0deULL)
{
    if (config.k < 2)
        fatalError("BloomierFilter requires k >= 2");
    if (config.ratio < 1.0)
        fatalError("BloomierFilter requires ratio >= 1");

    // Segment size: each partition holds k equal segments; round up
    // so that m >= ratio * capacity.
    double want = config.ratio * static_cast<double>(capacity_);
    size_t per_segment = static_cast<size_t>(std::ceil(
        want / (static_cast<double>(partitions_) * config.k)));
    per_segment = std::max<size_t>(per_segment, 2);
    segmentSlots_ = per_segment;
    partitionSlots_ = segmentSlots_ * config.k;

    size_t m = partitionSlots_ * partitions_;
    slots_.assign(m, 0);
    counts_.assign(m, 0);
    registry_.resize(partitions_);
    segmentMod_ = FastMod(segmentSlots_);
    partitionMod_ = FastMod(partitions_);

    // Codes are pointers into an n-entry table (Equation 4); bit 31
    // of each slot word is reserved for its parity.
    slotWidthBits_ = addressBits(capacity_);
    if (slotWidthBits_ > 31)
        fatalError("BloomierFilter capacity needs codes over 31 bits");
}

unsigned
BloomierFilter::partitionOf(const Key128 &key) const
{
    if (partitions_ == 1)
        return 0;
    return static_cast<unsigned>(
        partitionMod_(checksum_.hash(key, config_.keyLen)));
}

void
BloomierFilter::slotsOf(const Key128 &key, unsigned partition,
                        size_t out[]) const
{
    size_t base = static_cast<size_t>(partition) * partitionSlots_;
    for (unsigned i = 0; i < config_.k; ++i) {
        out[i] = base + i * segmentSlots_ +
            static_cast<size_t>(
                segmentMod_(family_.hash(i, key, config_.keyLen)));
    }
}

void
BloomierFilter::encodeAt(const Key128 &key, unsigned partition,
                         uint32_t code, size_t target)
{
    size_t locs[8];
    slotsOf(key, partition, locs);
    uint32_t v = code;
    bool found = false;
    for (unsigned i = 0; i < config_.k; ++i) {
        if (locs[i] == target) {
            found = true;
            continue;
        }
        v ^= slots_[locs[i]] & ~kParityBit;
    }
    panicIf(!found, "encodeAt target not in key's hash neighborhood");
    CHISEL_TRACE_WRITE(Index, target, (slotWidthBits_ + 7) / 8);
    writeSlot(target, v);
}

uint32_t
BloomierFilter::lookupCode(const Key128 &key, bool *parity_ok) const
{
    size_t locs[8];
    slotsOf(key, partitionOf(key), locs);
    uint32_t v = 0;
    const uint32_t slot_bytes = (slotWidthBits_ + 7) / 8;
    for (unsigned i = 0; i < config_.k; ++i) {
        // One hardware access per segment probe (k per lookup).
        CHISEL_TRACE_ACCESS(Index, locs[i], slot_bytes);
        v ^= slots_[locs[i]];
        if (parity_ok && !parityOk(locs[i]))
            *parity_ok = false;
    }
    return v & ~kParityBit;
}

void
BloomierFilter::reseed(uint64_t seed)
{
    config_.seed = seed;
    family_ = H3Family(config_.k, 64, seed);
    checksum_ = H3Hash(
        std::max(1u, ceilLog2(std::max(1u, config_.partitions))),
        seed ^ 0x5eedc0deULL);
    clear();
    ++stats_.reseeds;
}

void
BloomierFilter::flipSlotBit(size_t slot, unsigned bit)
{
    panicIf(slot >= slots_.size(), "flipSlotBit slot out of range");
    slots_[slot] ^= uint32_t(1) << (bit % 32);
}

std::vector<size_t>
BloomierFilter::keySlots(const Key128 &key) const
{
    size_t locs[8];
    slotsOf(key, partitionOf(key), locs);
    return std::vector<size_t>(locs, locs + config_.k);
}

bool
BloomierFilter::contains(const Key128 &key) const
{
    return registry_[partitionOf(key)].contains(key);
}

std::optional<uint32_t>
BloomierFilter::findCode(const Key128 &key) const
{
    const Registry &reg = registry_[partitionOf(key)];
    auto it = reg.find(key);
    if (it == reg.end())
        return std::nullopt;
    return it->second;
}

bool
BloomierFilter::hasSingletonSlot(const Key128 &key) const
{
    size_t locs[8];
    slotsOf(key, partitionOf(key), locs);
    for (unsigned i = 0; i < config_.k; ++i) {
        if (counts_[locs[i]] == 0)
            return true;
    }
    return false;
}

BloomierFilter::InsertResult
BloomierFilter::insert(const Key128 &key, uint32_t code)
{
    unsigned p = partitionOf(key);
    Registry &reg = registry_[p];
    if (reg.contains(key))
        return InsertResult{InsertMethod::Duplicate, {}};

    size_t locs[8];
    slotsOf(key, p, locs);

    // Fast path: a singleton slot lets us encode in O(1) (§4.4.2).
    size_t singleton = SIZE_MAX;
    for (unsigned i = 0; i < config_.k; ++i) {
        if (counts_[locs[i]] == 0) {
            singleton = locs[i];
            break;
        }
    }
    // Injection point: pretend no singleton exists, forcing the rare
    // partition-rebuild path (polled only when it changes behaviour).
    if (singleton != SIZE_MAX && CHISEL_FAULT_FIRE(ForceNonSingleton))
        singleton = SIZE_MAX;

    reg.emplace(key, code);
    for (unsigned i = 0; i < config_.k; ++i)
        ++counts_[locs[i]];
    ++size_;

    if (singleton != SIZE_MAX) {
        encodeAt(key, p, code, singleton);
        ++stats_.singletonInserts;
        return InsertResult{InsertMethod::Singleton, {}};
    }

    // Slow path: re-run setup on this key's partition only.
    InsertResult result;
    ++stats_.rebuilds;
    rebuildPartition(p, result.spilled);

    bool self_spilled = false;
    for (const auto &[k2, c2] : result.spilled) {
        if (k2 == key && c2 == code)
            self_spilled = true;
    }
    result.method = self_spilled ? InsertMethod::Failed
                                 : InsertMethod::Rebuild;
    return result;
}

bool
BloomierFilter::erase(const Key128 &key)
{
    unsigned p = partitionOf(key);
    Registry &reg = registry_[p];
    auto it = reg.find(key);
    if (it == reg.end())
        return false;
    reg.erase(it);

    size_t locs[8];
    slotsOf(key, p, locs);
    for (unsigned i = 0; i < config_.k; ++i) {
        panicIf(counts_[locs[i]] == 0,
                "BloomierFilter occupancy underflow");
        --counts_[locs[i]];
    }
    --size_;
    ++stats_.erases;
    return true;
}

std::vector<std::pair<Key128, uint32_t>>
BloomierFilter::setup(
    const std::vector<std::pair<Key128, uint32_t>> &entries)
{
    ++stats_.setups;
    clear();
    for (const auto &[key, code] : entries) {
        unsigned p = partitionOf(key);
        Registry &reg = registry_[p];
        if (reg.contains(key))
            fatalError("BloomierFilter::setup: duplicate key");
        reg.emplace(key, code);
        size_t locs[8];
        slotsOf(key, p, locs);
        for (unsigned i = 0; i < config_.k; ++i)
            ++counts_[locs[i]];
        ++size_;
    }

    std::vector<std::pair<Key128, uint32_t>> spilled;
    for (unsigned p = 0; p < partitions_; ++p)
        rebuildPartition(p, spilled);
    return spilled;
}

void
BloomierFilter::rebuildPartition(
    unsigned p, std::vector<std::pair<Key128, uint32_t>> &spilled)
{
    Registry &reg = registry_[p];
    size_t base = static_cast<size_t>(p) * partitionSlots_;

    // Local snapshot of the partition's entries, in canonical (key)
    // order: the peel outcome must not depend on hash-map iteration
    // order, or a rebuild replayed after snapshot restore could
    // assign different slots than the original run.
    std::vector<std::pair<Key128, uint32_t>> entries(reg.begin(),
                                                     reg.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    size_t n = entries.size();

    // Per-slot peeling state, local indices [0, partitionSlots_).
    std::vector<uint32_t> cnt(partitionSlots_, 0);
    std::vector<uint32_t> xorsum(partitionSlots_, 0);
    std::vector<std::array<size_t, 8>> locs(n);

    for (size_t i = 0; i < n; ++i) {
        size_t raw[8];
        slotsOf(entries[i].first, p, raw);
        for (unsigned j = 0; j < config_.k; ++j) {
            size_t local = raw[j] - base;
            locs[i][j] = local;
            ++cnt[local];
            xorsum[local] ^= static_cast<uint32_t>(i);
        }
    }

    auto remove_entry = [&](size_t i) {
        for (unsigned j = 0; j < config_.k; ++j) {
            size_t l = locs[i][j];
            --cnt[l];
            xorsum[l] ^= static_cast<uint32_t>(i);
        }
    };

    // Peel: repeatedly pop singleton slots.  peel_slot[i] records the
    // slot through which entry i was peeled (its τ location).
    std::vector<size_t> peel_order;
    peel_order.reserve(n);
    std::vector<size_t> peel_slot(n, SIZE_MAX);
    std::vector<bool> peeled(n, false);

    std::deque<size_t> work;
    for (size_t s = 0; s < partitionSlots_; ++s) {
        if (cnt[s] == 1)
            work.push_back(s);
    }

    size_t peeled_count = 0;
    std::vector<bool> alive(n, true);

    // Injection point: evict one entry up front, as if the hash
    // functions had produced an unpeelable core containing it — the
    // construction-failure event of "Bloomier Filters: A second look".
    if (n > 0 && CHISEL_FAULT_FIRE(BloomierSetupFail)) {
        size_t victim =
            static_cast<size_t>(fault::activeInjector()->draw(n));
        alive[victim] = false;
        ++peeled_count;
        remove_entry(victim);
        for (unsigned j = 0; j < config_.k; ++j) {
            if (cnt[locs[victim][j]] == 1)
                work.push_back(locs[victim][j]);
        }
    }

    while (peeled_count < n) {
        bool progressed = false;
        while (!work.empty()) {
            size_t s = work.front();
            work.pop_front();
            if (cnt[s] != 1)
                continue;
            size_t i = xorsum[s];
            if (peeled[i] || !alive[i])
                continue;
            peeled[i] = true;
            peel_slot[i] = s;
            peel_order.push_back(i);
            ++peeled_count;
            progressed = true;
            remove_entry(i);
            for (unsigned j = 0; j < config_.k; ++j) {
                if (cnt[locs[i][j]] == 1)
                    work.push_back(locs[i][j]);
            }
        }
        if (peeled_count == n)
            break;
        if (!progressed || work.empty()) {
            // Stuck: every remaining entry sits on a cycle.  Evict the
            // most conflicted remaining entry to the spillover TCAM
            // (§4.1) and keep peeling.
            size_t victim = SIZE_MAX;
            uint64_t worst = 0;
            for (size_t i = 0; i < n; ++i) {
                if (peeled[i] || !alive[i])
                    continue;
                uint64_t load = 0;
                for (unsigned j = 0; j < config_.k; ++j)
                    load += cnt[locs[i][j]];
                if (victim == SIZE_MAX || load > worst) {
                    victim = i;
                    worst = load;
                }
            }
            panicIf(victim == SIZE_MAX,
                    "Bloomier peeling stuck with no remaining entry");
            alive[victim] = false;
            ++peeled_count;
            remove_entry(victim);
            for (unsigned j = 0; j < config_.k; ++j) {
                if (cnt[locs[victim][j]] == 1)
                    work.push_back(locs[victim][j]);
            }
        }
    }

    // Evicted entries leave the registry and the global counts.
    for (size_t i = 0; i < n; ++i) {
        if (alive[i])
            continue;
        spilled.push_back(entries[i]);
        ++stats_.spilledKeys;
        reg.erase(entries[i].first);
        size_t raw[8];
        slotsOf(entries[i].first, p, raw);
        for (unsigned j = 0; j < config_.k; ++j)
            --counts_[raw[j]];
        --size_;
    }

    // Encode in reverse peel order (the paper's Γ): each write lands
    // in a slot no later write will read or touch.
    std::fill(slots_.begin() + base,
              slots_.begin() + base + partitionSlots_, 0);
    for (auto it = peel_order.rbegin(); it != peel_order.rend(); ++it) {
        size_t i = *it;
        encodeAt(entries[i].first, p, entries[i].second,
                 base + peel_slot[i]);
    }
}

uint64_t
BloomierFilter::storageBits() const
{
    return static_cast<uint64_t>(slots_.size()) * slotWidthBits_;
}

void
BloomierFilter::clear()
{
    std::fill(slots_.begin(), slots_.end(), 0);
    std::fill(counts_.begin(), counts_.end(), 0);
    for (auto &reg : registry_)
        reg.clear();
    size_ = 0;
}

void
BloomierFilter::saveState(persist::Encoder &enc) const
{
    enc.u64(config_.seed);
    enc.u64(slots_.size());
    // Parity bits are not persisted; loadState() recomputes them.
    for (uint32_t s : slots_)
        enc.u32(s & ~kParityBit);
    enc.u64(size_);
    // Canonical (key-sorted) order: the image of a restored filter
    // must be byte-identical to the image it was restored from, so
    // hash-map iteration order must not leak into the encoding.
    std::vector<std::pair<Key128, uint32_t>> keys;
    keys.reserve(size_);
    for (const Registry &reg : registry_)
        keys.insert(keys.end(), reg.begin(), reg.end());
    std::sort(keys.begin(), keys.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    for (const auto &[key, code] : keys) {
        enc.key(key);
        enc.u32(code);
    }
    enc.u64(stats_.singletonInserts);
    enc.u64(stats_.rebuilds);
    enc.u64(stats_.spilledKeys);
    enc.u64(stats_.erases);
    enc.u64(stats_.reseeds);
    enc.u64(stats_.setups);
}

void
BloomierFilter::loadState(persist::Decoder &dec)
{
    uint64_t seed = dec.u64();
    // reseed() rebuilds the hash family the slot contents were
    // encoded under and clears every table; counters restored below.
    reseed(seed);

    if (dec.u64() != slots_.size())
        throw persist::DecodeError("bloomier: slot count mismatch");
    for (size_t i = 0; i < slots_.size(); ++i) {
        uint32_t value = dec.u32();
        if (value & kParityBit)
            throw persist::DecodeError("bloomier: slot value over 31 bits");
        writeSlot(i, value);
    }

    uint64_t n = dec.count(20);   // Key128 (16) + code (4).
    if (n > capacity_)
        throw persist::DecodeError("bloomier: more keys than capacity");
    for (uint64_t i = 0; i < n; ++i) {
        Key128 key = dec.key();
        uint32_t code = dec.u32();
        if (code >= capacity_)
            throw persist::DecodeError("bloomier: code out of range");
        unsigned p = partitionOf(key);
        auto [it, inserted] = registry_[p].emplace(key, code);
        (void)it;
        if (!inserted)
            throw persist::DecodeError("bloomier: duplicate key");
        size_t locs[8];
        slotsOf(key, p, locs);
        for (unsigned j = 0; j < config_.k; ++j)
            ++counts_[locs[j]];
    }
    size_ = n;

    stats_.singletonInserts = dec.u64();
    stats_.rebuilds = dec.u64();
    stats_.spilledKeys = dec.u64();
    stats_.erases = dec.u64();
    stats_.reseeds = dec.u64();
    stats_.setups = dec.u64();
}

bool
BloomierFilter::selfCheck() const
{
    for (unsigned p = 0; p < partitions_; ++p) {
        for (const auto &[key, code] : registry_[p]) {
            if (lookupCode(key) != code)
                return false;
        }
    }
    return true;
}

} // namespace chisel
