// One request step of a slot-cache client (DESIGN.md D12).
//
// Every slot-cache driver — the prefetch_cache runner, trace replay, the
// netsim ClientSession and the multi-client DES — runs the same Section
// 5.3 step after planning (F, D) with the Figure-6 algorithm: the
// prefetched items replace their victims, the request is served, and a
// demand miss claims a minimal-Pr victim. This header is that step, once.
// Drivers keep what is theirs: DES timing (link queue, completion times),
// faults, cancellation, churn and overload.
//
// Header-inline on purpose: ClientSession::request is the des_fleet hot
// step, and the per-fetch hook and victim-row callbacks inline into it.
#pragma once

#include <span>
#include <vector>

#include "cache/cache.hpp"
#include "cache/freq_tracker.hpp"
#include "core/access_model.hpp"
#include "core/arbitration.hpp"
#include "core/prefetch_engine.hpp"
#include "sim/metrics.hpp"

namespace skp {

// The wasted-prefetch rule: a prefetched item that leaves the cache
// before its first request is a wasted prefetch. The book tracks which
// residents are such unrequested prefetches; it knows nothing of the
// cache type, so slot and sized caches share it.
class PrefetchBook {
 public:
  explicit PrefetchBook(std::size_t n_items) : unused_(n_items, 0) {}

  // `item` entered the cache by prefetch.
  void prefetched(ItemId item) { unused_[InstanceView::idx(item)] = 1; }

  // `item` left the cache: a plan or demand victim, a cancelled queued
  // prefetch, a churned resident. True when that wasted a prefetch.
  bool evicted(ItemId item) {
    char& unused = unused_[InstanceView::idx(item)];
    const bool wasted = unused != 0;
    unused = 0;
    return wasted;
  }

  // `item` was requested: its prefetch, if any, was used.
  void requested(ItemId item) { unused_[InstanceView::idx(item)] = 0; }

  // `item`'s prefetch was rolled back before it landed (an abandoned
  // transfer): it never served, and it is not counted as wasted.
  void dropped(ItemId item) { unused_[InstanceView::idx(item)] = 0; }

 private:
  std::vector<char> unused_;
};

// A slot-cache client's request-spanning state: the cache, the tracker
// its victim order is keyed by, and the prefetch book.
struct SlotClient {
  SlotClient(std::size_t n_items, std::size_t capacity)
      : cache(n_items, capacity), freq(n_items), book(n_items) {}

  SlotCache cache;
  FreqTracker freq;
  PrefetchBook book;
};

inline void charge_prefetch(SimMetrics& m, double r) {
  ++m.prefetch_fetches;
  m.network_time += r;
  m.prefetch_network_time += r;
}

inline void charge_demand(SimMetrics& m, double r) {
  ++m.demand_fetches;
  m.network_time += r;
  m.demand_network_time += r;
}

// Commits `plan`: each fetch replaces the plan's next victim when the
// cache is full, else takes a free slot, and is booked and charged r[f].
// `land(f)` runs once the fetch holds its slot (a DES enqueues the
// transfer there); false means the transfer was abandoned, and the slot
// is released again — the victim stays gone, and a later request for
// the item falls back to a demand fetch. Metrics move only when
// `counted`; the cache and the book always do.
template <class Land>
void commit_plan(SlotClient& c, const PrefetchPlan& plan,
                 std::span<const double> r, SimMetrics& m, bool counted,
                 Land&& land) {
  std::size_t victim_idx = 0;
  for (const ItemId f : plan.fetch) {
    if (c.cache.full()) {
      SKP_ASSERT(victim_idx < plan.evict.size());
      const ItemId d = plan.evict[victim_idx++];
      if (c.book.evicted(d) && counted) ++m.wasted_prefetches;
      c.cache.replace(d, f);
    } else {
      c.cache.insert(f);
    }
    c.book.prefetched(f);
    if (!land(f)) {
      c.cache.erase(f);
      c.book.dropped(f);
    }
    if (counted) charge_prefetch(m, r[InstanceView::idx(f)]);
  }
}

// Serves the request for `item`: records the access (the keyed victim
// order's sync point), books it, and on a miss demand-fetches it —
// charged r[item] — into a free slot or over the minimal-Pr victim chosen
// under the row `victim_row()` returns (called only then). Returns
// whether `item` was resident. The demand transfer's timing is the
// caller's.
template <class VictimRow>
bool serve_request(SlotClient& c, ItemId item, std::span<const double> r,
                   const ArbitrationConfig& arb, SimMetrics& m,
                   bool counted, VictimRow&& victim_row) {
  c.cache.record_access(c.freq, item);
  c.book.requested(item);
  const bool hit = c.cache.contains(item);
  if (!hit) {
    if (counted) charge_demand(m, r[InstanceView::idx(item)]);
    if (c.cache.full()) {
      const ItemId d = choose_victim(victim_row(), c.cache, &c.freq, arb);
      if (c.book.evicted(d) && counted) ++m.wasted_prefetches;
      c.cache.replace(d, item);
    } else {
      c.cache.insert(item);
    }
  }
  SKP_ASSERT(c.cache.order_consistent());
  return hit;
}

// The Monte-Carlo access accounting shared by the slot and sized runners:
// the step's realized access time T and the plan's search effort.
inline void account_step(SimMetrics& m, const PrefetchPlan& plan,
                         double T) {
  m.solver_nodes += plan.solver_nodes;
  m.access_time.add(T);
  ++m.requests;
  if (T == 0.0) ++m.hits;
}

// The Monte-Carlo request step (prefetch_cache runner, trace replay):
// realized access time against the pre-plan cache by the Section-5
// cases — computed before the plan mutates the cache, which is exactly
// the "cache before" the model asks for — then commit, serve `next`, and
// account the step when `counted`. Returns T.
template <class VictimRow>
double monte_carlo_step(SlotClient& c, const InstanceView& inst,
                        const PrefetchPlan& plan, ItemId next,
                        const ArbitrationConfig& arb, SimMetrics& m,
                        bool counted, VictimRow&& victim_row) {
  const double T = realized_access_time_cached(
      inst, plan.fetch, plan.evict, c.cache.presence(), next);
  commit_plan(c, plan, inst.r, m, counted, [](ItemId) { return true; });
  if (counted) account_step(m, plan, T);
  serve_request(c, next, inst.r, arb, m, counted, victim_row);
  return T;
}

}  // namespace skp
