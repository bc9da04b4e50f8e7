#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace skp {

void OnlineStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double OnlineStats::sem() const noexcept {
  return n_ > 1 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

BinnedMeans::BinnedMeans(std::int64_t lo, std::int64_t hi) : lo_(lo), hi_(hi) {
  SKP_REQUIRE(lo <= hi, "BinnedMeans range [" << lo << "," << hi << "]");
  bins_.resize(static_cast<std::size_t>(hi - lo + 1));
}

void BinnedMeans::add(std::int64_t x, double y) {
  SKP_REQUIRE(x >= lo_ && x <= hi_,
              "bin " << x << " outside [" << lo_ << "," << hi_ << "]");
  bins_[static_cast<std::size_t>(x - lo_)].add(y);
}

void BinnedMeans::merge(const BinnedMeans& other) {
  SKP_REQUIRE(lo_ == other.lo_ && hi_ == other.hi_,
              "BinnedMeans range mismatch in merge");
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    bins_[i].merge(other.bins_[i]);
  }
}

const OnlineStats& BinnedMeans::bin(std::int64_t x) const {
  SKP_REQUIRE(x >= lo_ && x <= hi_,
              "bin " << x << " outside [" << lo_ << "," << hi_ << "]");
  return bins_[static_cast<std::size_t>(x - lo_)];
}

std::vector<std::pair<double, double>> BinnedMeans::series() const {
  std::vector<std::pair<double, double>> out;
  out.reserve(bins_.size());
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    if (bins_[i].count() > 0) {
      out.emplace_back(static_cast<double>(lo_ + static_cast<std::int64_t>(i)),
                       bins_[i].mean());
    }
  }
  return out;
}

double quantile_sorted(std::span<const double> sorted, double q) {
  SKP_REQUIRE(!sorted.empty(), "quantile of empty sample");
  SKP_REQUIRE(q >= 0.0 && q <= 1.0, "quantile in [0,1]");
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

Summary summarize(std::span<const double> data) {
  Summary s;
  s.count = data.size();
  if (data.empty()) return s;
  std::vector<double> v(data.begin(), data.end());
  std::sort(v.begin(), v.end());
  OnlineStats acc;
  for (double x : v) acc.add(x);
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.min = v.front();
  s.max = v.back();
  s.p25 = quantile_sorted(v, 0.25);
  s.median = quantile_sorted(v, 0.5);
  s.p75 = quantile_sorted(v, 0.75);
  s.p95 = quantile_sorted(v, 0.95);
  return s;
}

double pearson(std::span<const double> x, std::span<const double> y) {
  SKP_REQUIRE(x.size() == y.size(), "pearson: length mismatch");
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  OnlineStats sx, sy;
  for (std::size_t i = 0; i < n; ++i) {
    sx.add(x[i]);
    sy.add(y[i]);
  }
  double cov = 0;
  for (std::size_t i = 0; i < n; ++i)
    cov += (x[i] - sx.mean()) * (y[i] - sy.mean());
  cov /= static_cast<double>(n - 1);
  const double denom = sx.stddev() * sy.stddev();
  return denom > 0 ? cov / denom : 0.0;
}

}  // namespace skp
