#include "cache/freq_tracker.hpp"

namespace skp {

FreqTracker::FreqTracker(std::size_t n, double decay,
                         std::uint64_t decay_interval)
    : counts_(n, 0.0), decay_(decay), decay_interval_(decay_interval) {
  SKP_REQUIRE(n > 0, "FreqTracker over empty catalog");
  SKP_REQUIRE(decay > 0.0 && decay <= 1.0, "decay = " << decay);
  SKP_REQUIRE(decay_interval > 0, "decay_interval must be positive");
}

void FreqTracker::reset() {
  counts_.assign(counts_.size(), 0.0);
  since_decay_ = 0;
  total_ = 0;
  decays_ = 0;
}

}  // namespace skp
