// Measurement primitives of the benchmark: the tail-percentile rule,
// in-memory spans with self-time arithmetic, open-loop (due-time)
// latency accounting, live-byte counting and the result line.
//
// Header-only and free of library dependencies so the self-tests
// (tests/test_measure.cpp) exercise exactly the code the workloads use.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pb {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Percentiles ---------------------------------------------------------

// A tail statistic under the reporting rule: the highest percentile not
// above the requested one that still has at least `kMinBeyond` samples
// strictly beyond it (nearest-rank), together with the sample count. With
// 1000 samples p99 qualifies; with 500 the tail falls back to p98; below
// kMinBeyond + 1 samples no tail qualifies and the median is reported.
struct Quantile {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

inline constexpr std::size_t kMinBeyond = 10;

// Nearest-rank index of percentile `p` (0 < p <= 100) over n samples.
inline std::size_t rank_index(std::size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  const std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return std::min(k, n - 1);
}

// `samples` is reordered (nth_element), not copied.
inline Quantile quantile(std::vector<double>& samples, double want) {
  Quantile q;
  q.samples = samples.size();
  if (samples.empty()) return q;
  const std::size_t n = samples.size();
  std::size_t k = rank_index(n, want);
  if (want > 50.0) {
    if (n > kMinBeyond) {
      k = std::min(k, n - 1 - kMinBeyond);
    } else {
      k = rank_index(n, 50.0);
    }
    k = std::max(k, rank_index(n, 50.0));
  }
  q.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  q.value = samples[k];
  return q;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Spans ---------------------------------------------------------------

// One recorded span. `parent` is the index of the enclosing span in the
// same buffer, or kNoParent for a request's root.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  std::uint32_t name = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t request = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

// Self time of every span in `spans[first, last)`: its duration minus the
// part of its interval covered by the union of its children's intervals
// (children clipped to the parent; overlapping children counted once).
// Parents must precede their children, as a tracer records them.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans,
                                            std::size_t first,
                                            std::size_t last) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      last - first);
  for (std::size_t i = first; i < last; ++i) {
    const Span& s = spans[i];
    if (s.parent == Span::kNoParent || s.parent < first || s.parent >= i) {
      continue;
    }
    const Span& p = spans[s.parent];
    const std::int64_t a = std::max(s.start, p.start);
    const std::int64_t b = std::min(s.end, p.end);
    if (b > a) kids[s.parent - first].emplace_back(a, b);
  }
  std::vector<std::int64_t> self(last - first);
  for (std::size_t i = first; i < last; ++i) {
    auto& iv = kids[i - first];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (!open || a > cur_b) {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (open) covered += cur_b - cur_a;
    self[i - first] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

// Records spans in memory. Every closed request tree (a root span and its
// descendants) is folded into per-name totals at once; the raw spans are
// kept up to `keep_limit` for writing out, later trees are dropped from
// the buffer after folding (dropped() counts them).
class Tracer {
 public:
  explicit Tracer(std::size_t keep_limit = 1u << 18) : keep_(keep_limit) {}

  std::uint32_t name_id(const std::string& name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.push_back(name);
    totals_.emplace_back();
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  // Opens a span under the innermost open span (a root when none is open).
  std::uint32_t begin(std::uint32_t name, std::uint64_t request) {
    Span s;
    s.name = name;
    s.request = request;
    s.parent = open_.empty() ? Span::kNoParent : open_.back();
    s.start = now_ns();
    spans_.push_back(s);
    const auto idx = static_cast<std::uint32_t>(spans_.size() - 1);
    open_.push_back(idx);
    return idx;
  }

  void end(std::uint32_t idx) {
    spans_[idx].end = now_ns();
    open_.pop_back();
    if (open_.empty()) close_tree(idx);
  }

  struct Total {
    std::int64_t self_ns = 0;
    std::int64_t total_ns = 0;
    std::uint64_t count = 0;
  };
  // Totals by span name (every folded tree).
  std::map<std::string, Total> totals() const {
    std::map<std::string, Total> out;
    for (std::size_t i = 0; i < names_.size(); ++i) out[names_[i]] = totals_[i];
    return out;
  }
  // Folded self time of every span called `name` (0 if none).
  std::int64_t self_ns(const std::string& name) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return totals_[i].self_ns;
    }
    return 0;
  }
  std::uint64_t dropped() const noexcept { return dropped_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  // CSV: name,request,start_ns,end_ns,parent,self_ns (times relative to
  // the first kept span). Returns false when the file cannot be written.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<std::int64_t> self = self_times(spans_, 0, spans_.size());
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "index,name,request,start_ns,end_ns,parent,self_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%s,%llu,%lld,%lld,%lld,%lld\n", i,
                   names_[s.name].c_str(),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start - t0),
                   static_cast<long long>(s.end - t0),
                   s.parent == Span::kNoParent
                       ? -1LL
                       : static_cast<long long>(s.parent),
                   static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
  }

 private:
  void close_tree(std::uint32_t root) {
    const std::vector<std::int64_t> self =
        self_times(spans_, root, spans_.size());
    for (std::size_t i = root; i < spans_.size(); ++i) {
      Total& t = totals_[spans_[i].name];
      t.self_ns += self[i - root];
      t.total_ns += spans_[i].end - spans_[i].start;
      ++t.count;
    }
    if (spans_.size() > keep_) {
      dropped_ += spans_.size() - root;
      spans_.resize(root);
    }
  }

  std::size_t keep_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::vector<std::string> names_;
  std::vector<Total> totals_;
  std::uint64_t dropped_ = 0;
};

// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* t, std::uint32_t name, std::uint64_t request) : t_(t) {
    if (t_) idx_ = t_->begin(name, request);
  }
  ~Scope() {
    if (t_) t_->end(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  std::uint32_t idx_ = 0;
};

// ---- Open-loop accounting ------------------------------------------------

// The median, over consecutive windows of `window` samples (in time
// order), of each window's quantile `want`. A burst of host scheduling
// noise spoils the windows it falls in, not the median of all windows. A
// trailing partial window is ignored unless no window is complete.
inline Quantile windowed_quantile(const std::vector<double>& in_time_order,
                                  std::size_t window, double want) {
  if (in_time_order.size() < 2 * window) {
    std::vector<double> all = in_time_order;
    return quantile(all, want);
  }
  std::vector<double> per_window;
  Quantile q;
  for (std::size_t a = 0; a + window <= in_time_order.size(); a += window) {
    std::vector<double> w(in_time_order.begin() + static_cast<std::ptrdiff_t>(a),
                          in_time_order.begin() +
                              static_cast<std::ptrdiff_t>(a + window));
    q = quantile(w, want);
    per_window.push_back(q.value);
  }
  q.value = median(per_window);
  q.samples = per_window.size() * window;
  return q;
}

// Schedule of an open-loop generator: request i is due at
// t0 + i / rate. Latency is charged from the due time, so a stall (in the
// server or in the generator) is paid by every request queued behind it;
// the generator's own lateness (release - due) is recorded separately.
// Samples are kept in due order.
class OpenLoopBook {
 public:
  OpenLoopBook(double rate_per_s, std::int64_t t0_ns)
      : rate_(rate_per_s), t0_(t0_ns) {}

  double rate() const noexcept { return rate_; }
  std::int64_t due(std::uint64_t i) const {
    return t0_ + static_cast<std::int64_t>(std::llround(
                     static_cast<double>(i) * 1e9 / rate_));
  }
  // Requests due at or before `t`.
  std::uint64_t due_by(std::int64_t t) const {
    if (t < t0_) return 0;
    return static_cast<std::uint64_t>(
               std::floor(static_cast<double>(t - t0_) * rate_ / 1e9)) +
           1;
  }
  // The generator reached request i at t (its lateness is t - due(i)).
  void released(std::uint64_t i, std::int64_t t) {
    at(lag_us_, i) = static_cast<double>(t - due(i)) / 1e3;
  }
  // Request i completed at t.
  void done(std::uint64_t i, std::int64_t t) {
    at(latency_us_, i) = static_cast<double>(t - due(i)) / 1e3;
  }
  // Recorded samples in due order (requests without one are skipped).
  std::vector<double> latency_us() const { return recorded(latency_us_); }
  std::vector<double> lag_us() const { return recorded(lag_us_); }

 private:
  static double& at(std::vector<double>& v, std::uint64_t i) {
    if (v.size() <= i) v.resize(i + 1, std::nan(""));
    return v[i];
  }
  static std::vector<double> recorded(const std::vector<double>& v) {
    std::vector<double> out;
    for (const double x : v) {
      if (!std::isnan(x)) out.push_back(x);
    }
    return out;
  }

  double rate_;
  std::int64_t t0_;
  std::vector<double> latency_us_;
  std::vector<double> lag_us_;
};

// ---- Live heap bytes (alloc_count.cpp) -----------------------------------

// Requested-and-not-freed bytes of every default-aligned operator new in
// the process, and the high-water mark since the last reset_peak().
std::uint64_t live_bytes() noexcept;
std::uint64_t peak_bytes() noexcept;
void reset_peak() noexcept;

// ---- Result line -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

inline std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// The single JSON object the benchmark prints as its last stdout line.
inline std::string result_json(bool correct, std::uint64_t attempted,
                               std::uint64_t failed,
                               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           format_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace pb
