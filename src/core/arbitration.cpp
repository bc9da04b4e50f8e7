#include "core/arbitration.hpp"

#include <algorithm>

namespace skp {

ItemId choose_victim(InstanceView inst, std::span<const ItemId> cached,
                     const FreqTracker* freq, const ArbitrationConfig& cfg) {
  SKP_REQUIRE(!cached.empty(), "choose_victim over empty cache");
  SKP_REQUIRE(cfg.sub == SubArbitration::None || freq != nullptr,
              "sub-arbitration requires a FreqTracker");
  // Sub scores stay lazy: computed only when an item becomes the running
  // minimum or ties it.
  ItemId victim = kNoItem;
  double victim_pr = 0.0;
  double victim_sub = 0.0;
  for (const ItemId i : cached) {
    const std::size_t ii = InstanceView::idx(i);
    const double pr = inst.P[ii] * inst.r[ii];
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
