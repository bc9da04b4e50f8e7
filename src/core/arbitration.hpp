// Pr-arbitration and sub-arbitration (Section 5.2 of the paper).
//
// Pr-arbitration: a prefetch candidate f may evict a cached victim d only
// if d has the minimal Pr value P_d * r_d in the cache and (per the
// Figure-6 listing) P_f r_f is not smaller than P_d r_d. Demand-fetched
// items must always find a victim and need only the minimality condition.
//
// Sub-arbitration (SubArbitration, cache/freq_tracker.hpp) breaks ties
// among victims with equal Pr value: lowest id, LFU, or delay-saving
// profit freq_i * r_i.
//
// DESIGN.md D4: the paper's prose demands strict P_f r_f > P_d r_d while
// the listing breaks only on '<' (ties admit the prefetch). `strict_ties`
// selects the prose behaviour; the default follows the listing.
#pragma once

#include <span>
#include <vector>

#include "cache/cache.hpp"
#include "cache/freq_tracker.hpp"
#include "cache/sized_cache.hpp"
#include "core/item.hpp"

namespace skp {

struct ArbitrationConfig {
  SubArbitration sub = SubArbitration::None;
  bool strict_ties = false;  // true = prose rule, false = Figure-6 listing
};

// Sub-arbitration score of cached item `i`: 0 under None (where `freq`
// may be null), else freq->sub_score with i's retrieval time.
inline double sub_score(InstanceView inst, const FreqTracker* freq,
                        SubArbitration sub, ItemId i) {
  return sub == SubArbitration::None
             ? 0.0
             : freq->sub_score(sub, i, inst.r[InstanceView::idx(i)]);
}

// Chooses the eviction victim among `cached` (non-empty): minimal
// P_d * r_d, ties resolved by `cfg.sub` (then by lowest id). `freq` may be
// null only when cfg.sub == None.
ItemId choose_victim(InstanceView inst, std::span<const ItemId> cached,
                     const FreqTracker* freq, const ArbitrationConfig& cfg);

// The same victim among a slot cache's contents. When the cache keeps
// its victim order for cfg.sub (SlotCache::order_keyed_for) this is one
// walk of that order: the first zero-Pr item wins outright, otherwise
// the running (Pr, sub, id) minimum — no scan past the first zero-Pr
// item. Other caches take the span overload above.
ItemId choose_victim(InstanceView inst, const SlotCache& cache,
                     const FreqTracker* freq, const ArbitrationConfig& cfg);

// True when prefetch candidate `f` is allowed to displace victim `d`
// (Pr-arbitration admission test).
bool admits_prefetch(InstanceView inst, ItemId f, ItemId d,
                     const ArbitrationConfig& cfg);

// Size-aware generalization (extension; the paper's Section-6 open item).
// Greedily gathers victims from `cache` by ascending Pr *density*
// (P_d r_d per size unit, ties by sub-arbitration then id) until
// `needed_free` space is available (counting current free space).
// Returns the victim list; `ok` is false when even evicting everything
// would not make room.
struct VictimSet {
  std::vector<ItemId> victims;
  double freed = 0.0;     // space the victims release
  double total_pr = 0.0;  // sum of P_d r_d over the victims
  bool ok = false;

  // Resets to the empty set, keeping `victims`' capacity (hot-path reuse).
  void clear();
};
VictimSet gather_victims_by_density(InstanceView inst,
                                    const SizedCache& cache,
                                    const FreqTracker* freq,
                                    const ArbitrationConfig& cfg,
                                    double needed_free);

// Allocation-free variant: the candidate pool is staged in `pool` and the
// result written into `out` (both cleared first, capacity reused).
// Bit-identical to gather_victims_by_density.
void gather_victims_by_density_into(InstanceView inst,
                                    const SizedCache& cache,
                                    const FreqTracker* freq,
                                    const ArbitrationConfig& cfg,
                                    double needed_free,
                                    std::vector<ItemId>& pool,
                                    VictimSet& out);

}  // namespace skp
