#include "cache/cache.hpp"

namespace skp {

SlotCache::SlotCache(std::size_t catalog_size, std::size_t capacity)
    : capacity_(capacity), present_(catalog_size, 0), pos_(catalog_size, 0) {
  SKP_REQUIRE(catalog_size > 0, "catalog_size must be positive");
  SKP_REQUIRE(capacity >= 1, "capacity must be >= 1");
  contents_.reserve(capacity);
  order_.reserve(capacity);
}

void SlotCache::clear() {
  contents_.clear();
  order_.clear();
  if (keyed_) keyed_->okey.clear();
  std::fill(present_.begin(), present_.end(), 0);
  fingerprint_ = 0;
}

void SlotCache::key_order(SubArbitration sub, const FreqTracker* freq,
                          std::span<const double> r) {
  if (sub == SubArbitration::None) {
    keyed_.reset();
    rebuild_order();
    return;
  }
  SKP_REQUIRE(freq != nullptr, "a keyed victim order requires a FreqTracker");
  SKP_REQUIRE(freq->n() >= present_.size(),
              "FreqTracker over " << freq->n() << " items vs catalog of "
                                  << present_.size());
  SKP_REQUIRE(sub != SubArbitration::DS || r.size() >= present_.size(),
              "DS keys need a retrieval time per catalog item");
  keyed_ = std::make_unique<Keyed>(
      Keyed{sub, freq,
            sub == SubArbitration::DS ? r : std::span<const double>{},
            {}, 0, 0});
  keyed_->okey.reserve(capacity_);
  rebuild_order();
}

double SlotCache::score(ItemId item) const {
  const Keyed& k = *keyed_;
  return k.freq->sub_score(
      k.sub, item, k.r.empty() ? 0.0 : k.r[static_cast<std::size_t>(item)]);
}

std::size_t SlotCache::order_lower(std::size_t from, double key,
                                   ItemId id) const {
  const std::vector<double>& okey = keyed_->okey;
  std::size_t lo = from, hi = order_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (okey[mid] < key || (okey[mid] == key && order_[mid] < id)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void SlotCache::insert_keyed(ItemId item) {
  const double key = score(item);
  const auto at = static_cast<std::ptrdiff_t>(order_lower(0, key, item));
  order_.insert(order_.begin() + at, item);
  keyed_->okey.insert(keyed_->okey.begin() + at, key);
}

void SlotCache::erase_keyed(ItemId item) {
  // Searched by the current score, which is the stored key while the
  // order is in sync; a linear find covers an order that is not.
  std::size_t at = order_lower(0, score(item), item);
  if (at == order_.size() || order_[at] != item) {
    at = static_cast<std::size_t>(
        std::find(order_.begin(), order_.end(), item) - order_.begin());
  }
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(at));
  keyed_->okey.erase(keyed_->okey.begin() + static_cast<std::ptrdiff_t>(at));
}

void SlotCache::rebuild_order() {
  order_.assign(contents_.begin(), contents_.end());
  if (!keyed_) {
    std::sort(order_.begin(), order_.end());
    return;
  }
  std::sort(order_.begin(), order_.end(), [this](ItemId a, ItemId b) {
    const double ka = score(a), kb = score(b);
    return ka < kb || (ka == kb && a < b);
  });
  Keyed& k = *keyed_;
  k.okey.clear();
  for (const ItemId i : order_) k.okey.push_back(score(i));
  k.synced_total = k.freq->total_accesses();
  k.synced_decays = k.freq->decays();
}

void SlotCache::record_keyed(FreqTracker& freq, ItemId item) {
  Keyed& k = *keyed_;
  // A tracker other than the keyed one (e.g. the owner moved) is adopted:
  // the order is rebuilt against it below.
  const bool synced = &freq == k.freq &&
                      freq.total_accesses() == k.synced_total &&
                      freq.decays() == k.synced_decays;
  k.freq = &freq;
  const bool cached = contains(item);
  const std::size_t from = synced && cached ? order_lower(0, score(item), item)
                                            : 0;
  freq.record(item);
  if (!synced || freq.decays() != k.synced_decays) {
    rebuild_order();
    return;
  }
  k.synced_total = freq.total_accesses();
  if (!cached) return;  // keyed afresh when it is next inserted
  // A record without decay only raises the score (count + 1, times a
  // positive r), so the entry slides right: the entries it now outranks
  // shift one step left into its old slot.
  const double key = score(item);
  SKP_ASSERT(order_[from] == item && key >= k.okey[from]);
  const std::size_t to = order_lower(from + 1, key, item) - 1;
  for (std::size_t j = from; j < to; ++j) {
    order_[j] = order_[j + 1];
    k.okey[j] = k.okey[j + 1];
  }
  order_[to] = item;
  k.okey[to] = key;
}

bool SlotCache::order_consistent() const {
  if (order_.size() != contents_.size()) return false;
  if (keyed_ && keyed_->okey.size() != order_.size()) return false;
  const bool synced =
      keyed_ && order_keyed_for(keyed_->sub, keyed_->freq, keyed_->r);
  for (std::size_t j = 0; j < order_.size(); ++j) {
    const ItemId i = order_[j];
    if (i < 0 || static_cast<std::size_t>(i) >= present_.size() ||
        present_[static_cast<std::size_t>(i)] == 0) {
      return false;
    }
    if (synced && keyed_->okey[j] != score(i)) return false;
    if (j == 0) continue;
    const double prev = keyed_ ? keyed_->okey[j - 1] : 0.0;
    const double cur = keyed_ ? keyed_->okey[j] : 0.0;
    // Strictly ascending also rules out duplicates, so equal sizes make
    // the order a permutation of the contents.
    if (prev > cur || (prev == cur && order_[j - 1] >= i)) return false;
  }
  return true;
}

}  // namespace skp
