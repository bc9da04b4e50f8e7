// Access predictors — the "access model" the paper presupposes.
//
// The paper's performance model consumes next-access probabilities P_i from
// some external access model (its Section 1.1 surveys candidates). The
// simulators can run with the oracle P (the paper's setting) or with one of
// these learned predictors (the Section-6 "further work" integration):
//   * MarkovPredictor    — first-order transition counts with Laplace
//                          smoothing (cf. Padmanabhan & Mogul's dependency
//                          graph restricted to window 1).
//   * PpmPredictor       — order-k prediction by partial matching with
//                          escape blending (cf. Vitter & Krishnan's
//                          compression-based predictors).
//   * DependencyGraph    — lookahead-window co-occurrence counts
//                          (Padmanabhan & Mogul).
#pragma once

#include <vector>

#include "core/item.hpp"

namespace skp {

class Predictor {
 public:
  virtual ~Predictor() = default;

  // Observes one request (in stream order).
  virtual void observe(ItemId item) = 0;

  // Writes the predicted next-access distribution over the catalog (given
  // everything observed so far) into `out`, resized to n_items(). Always a
  // proper distribution (sums to 1). This is the primitive: it reuses the
  // caller's buffer, so the sim hot loops predict once per request without
  // touching the allocator.
  virtual void predict_into(std::vector<double>& out) const = 0;

  // Convenience wrapper returning a fresh vector.
  std::vector<double> predict() const {
    std::vector<double> out;
    predict_into(out);
    return out;
  }

  // Catalog size.
  virtual std::size_t n_items() const = 0;

  virtual void reset() = 0;

  // Heap bytes behind the learned state, the object itself excluded
  // (capacity bench). Grows with what has been observed, not with n^2.
  virtual std::size_t footprint_bytes() const noexcept = 0;
};

}  // namespace skp
