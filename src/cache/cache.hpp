// Slot cache with equal item sizes (the Section-5 assumption, DESIGN.md D6).
//
// The cache stores item ids; capacity counts items. Membership queries are
// O(1) via a presence bitmap; the content list is maintained in insertion
// order so iteration is deterministic. Eviction decisions are made by the
// caller (arbitration / replacement policies) — the cache itself only
// enforces capacity and uniqueness.
//
// Victim order (DESIGN.md D9). Besides the insertion-order list the cache
// keeps its items ascending by (sub-arbitration score, id): plain id
// order by default, or — after key_order() — LFU frequency or DS
// delay-saving profit read from a FreqTracker. Figure-6 arbitration
// evicts by ascending (Pr, sub, id), and on sparse probability rows
// almost every cached item has Pr = 0, so this state-independent order
// IS the victim order up to the few positive-Pr items. A request changes
// it by one re-key plus an insert and an erase per fetched item, so
// keeping it costs O(changed) where re-ranking costs O(cache). The sync
// points are insert/erase/replace (here) and record_access(), the one way
// a keyed cache's tracker may record; decay triggers a full rebuild.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cache/freq_tracker.hpp"
#include "cache/zobrist.hpp"
#include "core/item.hpp"

namespace skp {

class SlotCache {
 public:
  // `catalog_size` bounds valid item ids; `capacity` >= 1 slots.
  SlotCache(std::size_t catalog_size, std::size_t capacity);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return contents_.size(); }
  bool full() const noexcept { return contents_.size() == capacity_; }
  bool empty() const noexcept { return contents_.empty(); }

  // Inline: the candidate filter probes this once per catalog item per
  // planning round.
  bool contains(ItemId item) const {
    check_id(item);
    return present_[static_cast<std::size_t>(item)] != 0;
  }

  // Raw presence bitmap (indexed by item id over the whole catalog) for
  // bulk membership scans that bounds-check once instead of per probe.
  std::span<const char> presence() const noexcept { return present_; }

  // Zobrist fingerprint of the current content set (cache/zobrist.hpp):
  // XOR of the per-item keys, maintained in O(1) per mutation, equal for
  // equal sets regardless of insertion order (0 when empty). Keys the
  // cross-request plan memoization.
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  // Inserts an item that must not already be cached; throws when full
  // (evict first) or duplicated. Inline (with erase/replace below): the
  // sim loops mutate the cache tens of millions of times per sweep.
  void insert(ItemId item) {
    check_id(item);
    SKP_REQUIRE(!contains(item), "item " << item << " already cached");
    SKP_REQUIRE(contents_.size() < capacity_,
                "cache full (capacity " << capacity_ << "); evict first");
    pos_[static_cast<std::size_t>(item)] =
        static_cast<std::uint32_t>(contents_.size());
    contents_.push_back(item);
    if (keyed_) {
      insert_keyed(item);
    } else {
      order_.insert(std::lower_bound(order_.begin(), order_.end(), item),
                    item);
    }
    present_[static_cast<std::size_t>(item)] = 1;
    fingerprint_ ^= zobrist_item_key(item);
  }

  // Removes a cached item; throws if absent.
  void erase(ItemId item) {
    check_id(item);
    SKP_REQUIRE(contains(item), "item " << item << " not cached");
    // O(1) position lookup; one fused pass shifts the tail down and
    // reindexes it, keeping the documented insertion-order iteration for
    // the survivors.
    const std::size_t at = pos_[static_cast<std::size_t>(item)];
    for (std::size_t k = at + 1; k < contents_.size(); ++k) {
      const ItemId moved = contents_[k];
      contents_[k - 1] = moved;
      pos_[static_cast<std::size_t>(moved)] =
          static_cast<std::uint32_t>(k - 1);
    }
    contents_.pop_back();
    if (keyed_) {
      erase_keyed(item);
    } else {
      order_.erase(std::lower_bound(order_.begin(), order_.end(), item));
    }
    present_[static_cast<std::size_t>(item)] = 0;
    fingerprint_ ^= zobrist_item_key(item);
  }

  // Replaces `victim` with `incoming` in one step.
  void replace(ItemId victim, ItemId incoming) {
    erase(victim);
    insert(incoming);
  }

  // Current contents in insertion order (stable across erase via swap-free
  // compaction — order of survivors is preserved).
  std::span<const ItemId> contents() const noexcept { return contents_; }

  // Current contents ascending by (order key, id) — see the header
  // comment. Maintained incrementally (O(size) memmove per mutation).
  std::span<const ItemId> victim_order() const noexcept { return order_; }

  // Keys the victim order by `sub`'s score over `freq` (and, for DS, the
  // retrieval times `r`, which must outlive the cache and stay fixed);
  // SubArbitration::None restores plain id order. Rebuilds the order.
  void key_order(SubArbitration sub, const FreqTracker* freq,
                 std::span<const double> r = {});

  // Records an access to `item` in `freq` and re-keys it in the victim
  // order: the sync point around FreqTracker::record. On a cache keyed
  // by `freq` every record must go through here. A decay pass, a
  // FreqTracker::reset or a record made elsewhere leaves the order out
  // of sync (order_keyed_for turns false) until the next record_access,
  // which rebuilds it. On an id-ordered cache this is exactly
  // freq.record(item).
  void record_access(FreqTracker& freq, ItemId item) {
    if (keyed_) {
      record_keyed(freq, item);
    } else {
      freq.record(item);
    }
  }

  // True when victim_order() is the (sub, id) order of the current
  // contents for this sub-arbitration, tracker and retrieval-time row:
  // always for an id-ordered cache under None; for a keyed cache only
  // when keyed the same way and every record since the last sync went
  // through record_access. Callers that get false build the order
  // themselves.
  bool order_keyed_for(SubArbitration sub, const FreqTracker* freq,
                       std::span<const double> r) const noexcept {
    if (!keyed_) return sub == SubArbitration::None;
    const Keyed& k = *keyed_;
    return sub == k.sub && freq == k.freq &&
           freq->total_accesses() == k.synced_total &&
           freq->decays() == k.synced_decays &&
           (sub != SubArbitration::DS || r.data() == k.r.data());
  }

  // Full invariant check (O(size)): the victim order holds exactly the
  // contents, strictly ascending by (stored key, id), and — when keyed
  // and in sync — every stored key equals its current score. For
  // assertions and tests.
  bool order_consistent() const;

  void clear();

 private:
  void check_id(ItemId item) const {
    SKP_REQUIRE(
        item >= 0 && static_cast<std::size_t>(item) < present_.size(),
        "item " << item << " outside catalog of " << present_.size());
  }

  // Keyed victim-order upkeep (cache.cpp).
  void insert_keyed(ItemId item);
  void erase_keyed(ItemId item);
  void record_keyed(FreqTracker& freq, ItemId item);
  void rebuild_order();  // re-reads every cached item's key and re-sorts
  double score(ItemId item) const;  // current key of `item`
  // First position in [from, size) whose entry is not below (key, id).
  std::size_t order_lower(std::size_t from, double key, ItemId id) const;

  std::size_t capacity_;
  std::vector<ItemId> contents_;
  std::vector<ItemId> order_;  // same set, ascending (key, id)
  std::vector<char> present_;
  std::uint64_t fingerprint_ = 0;
  // item -> index in contents_ (meaningful only while present_); turns
  // erase's membership scan into an O(1) lookup.
  std::vector<std::uint32_t> pos_;

  // Victim-order keying, allocated by key_order() for LFU/DS only, so an
  // id-ordered cache pays one null pointer for it.
  struct Keyed {
    SubArbitration sub;
    const FreqTracker* freq;
    std::span<const double> r;    // DS retrieval times
    std::vector<double> okey;     // okey[k] = key of order_[k]
    std::uint64_t synced_total;   // freq->total_accesses() at last sync
    std::uint64_t synced_decays;  // freq->decays() at last sync
  };
  std::unique_ptr<Keyed> keyed_;
};

}  // namespace skp
