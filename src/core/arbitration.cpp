#include "core/arbitration.hpp"

#include <algorithm>

#include "util/simd.hpp"

namespace skp {

ItemId choose_victim(InstanceView inst, std::span<const ItemId> cached,
                     const FreqTracker* freq, const ArbitrationConfig& cfg) {
  SKP_REQUIRE(!cached.empty(), "choose_victim over empty cache");
  SKP_REQUIRE(cfg.sub == SubArbitration::None || freq != nullptr,
              "sub-arbitration requires a FreqTracker");
  // The Pr products are bulk-gathered a chunk at a time (util/simd.hpp —
  // each lane an exact IEEE multiply), then the minimum scan runs over
  // the chunk in the original ascending-k order. Sub scores stay lazy:
  // computed only when an item becomes the running minimum or ties it.
  // Every score is an exact IEEE load or single product, so the winner
  // matches the one-at-a-time loop bit for bit.
  constexpr std::size_t kChunk = 64;
  double pr_buf[kChunk];
  ItemId victim = kNoItem;
  double victim_pr = 0.0;
  double victim_sub = 0.0;
  for (std::size_t base = 0; base < cached.size(); base += kChunk) {
    const std::size_t len = std::min(kChunk, cached.size() - base);
    simd::gather_products(inst.P, inst.r, cached.subspan(base, len),
                          pr_buf);
    for (std::size_t j = 0; j < len; ++j) {
      const ItemId i = cached[base + j];
      const double pr = pr_buf[j];
      if (victim == kNoItem || pr < victim_pr) {
        victim = i;
        victim_pr = pr;
        victim_sub = sub_score(inst, freq, cfg.sub, i);
        continue;
      }
      if (pr > victim_pr) continue;
      // Pr tie: sub-arbitration, then lowest id for determinism.
      const double s = sub_score(inst, freq, cfg.sub, i);
      if (s < victim_sub || (s == victim_sub && i < victim)) {
        victim = i;
        victim_sub = s;
      }
    }
  }
  return victim;
}

ItemId choose_victim(InstanceView inst, const SlotCache& cache,
                     const FreqTracker* freq, const ArbitrationConfig& cfg) {
  SKP_REQUIRE(inst.n() == cache.presence().size(),
              "catalog of " << inst.n() << " items vs cache catalog of "
                            << cache.presence().size());
  if (!cache.order_keyed_for(cfg.sub, freq, inst.r)) {
    return choose_victim(inst, cache.contents(), freq, cfg);
  }
  SKP_REQUIRE(!cache.empty(), "choose_victim over empty cache");
  // Walking ascending (sub, id): a Pr tie keeps the earlier item, which
  // is exactly the (Pr, sub, id) tie chain.
  ItemId victim = kNoItem;
  double victim_pr = 0.0;
  for (const ItemId d : cache.victim_order()) {
    const std::size_t di = InstanceView::idx(d);
    const double pr = inst.P[di] * inst.r[di];
    if (pr == 0.0) return d;
    if (victim == kNoItem || pr < victim_pr) {
      victim = d;
      victim_pr = pr;
    }
  }
  return victim;
}

bool admits_prefetch(InstanceView inst, ItemId f, ItemId d,
                     const ArbitrationConfig& cfg) {
  const double pf = inst.profit(f);
  const double pd = inst.profit(d);
  return cfg.strict_ties ? (pf > pd) : (pf >= pd);
}

void VictimSet::clear() {
  victims.clear();
  freed = 0.0;
  total_pr = 0.0;
  ok = false;
}

VictimSet gather_victims_by_density(InstanceView inst,
                                    const SizedCache& cache,
                                    const FreqTracker* freq,
                                    const ArbitrationConfig& cfg,
                                    double needed_free) {
  VictimSet out;
  std::vector<ItemId> pool;
  gather_victims_by_density_into(inst, cache, freq, cfg, needed_free, pool,
                                 out);
  return out;
}

void gather_victims_by_density_into(InstanceView inst,
                                    const SizedCache& cache,
                                    const FreqTracker* freq,
                                    const ArbitrationConfig& cfg,
                                    double needed_free,
                                    std::vector<ItemId>& pool,
                                    VictimSet& out) {
  SKP_REQUIRE(needed_free >= 0.0, "negative space request");
  SKP_REQUIRE(cfg.sub == SubArbitration::None || freq != nullptr,
              "sub-arbitration requires a FreqTracker");
  out.clear();
  double available = cache.free_space();
  if (available >= needed_free) {
    out.ok = true;
    return;
  }
  pool.assign(cache.contents().begin(), cache.contents().end());
  auto density = [&](ItemId i) {
    return inst.profit(i) / cache.size_of(i);
  };
  std::sort(pool.begin(), pool.end(), [&](ItemId a, ItemId b) {
    const double da = density(a), db = density(b);
    if (da != db) return da < db;
    const double sa = sub_score(inst, freq, cfg.sub, a);
    const double sb = sub_score(inst, freq, cfg.sub, b);
    if (sa != sb) return sa < sb;
    return a < b;
  });
  for (const ItemId d : pool) {
    if (available >= needed_free) break;
    out.victims.push_back(d);
    out.freed += cache.size_of(d);
    out.total_pr += inst.profit(d);
    available += cache.size_of(d);
  }
  out.ok = available >= needed_free;
}

}  // namespace skp
