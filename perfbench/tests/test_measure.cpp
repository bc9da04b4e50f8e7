// Self-tests of the benchmark's measurement rules (src/measure.hpp):
// the tail-percentile rule, due-time latency under an injected stall,
// and span self-time arithmetic. Plain checks, no framework; exits 1 on
// any failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "measure.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  // Shuffle deterministically so nth_element does real work.
  for (std::size_t i = 0; i < n; ++i) std::swap(v[i], v[(i * 7919) % n]);
  return v;
}

void percentile_rule() {
  // 1000 samples: p99 has exactly 10 samples beyond it.
  std::vector<double> v = ramp(1000);
  pb::Quantile q = pb::quantile(v, 99.0);
  EXPECT(near(q.percentile, 99.0));
  EXPECT(near(q.value, 990.0));
  EXPECT(q.samples == 1000);

  // 500 samples: p99 would leave 5 beyond; the rule falls back to p98.
  v = ramp(500);
  q = pb::quantile(v, 99.0);
  EXPECT(near(q.percentile, 98.0));
  EXPECT(near(q.value, 490.0));
  std::size_t beyond = 0;
  for (double x : v) beyond += x > q.value;
  EXPECT(beyond == pb::kMinBeyond);

  // 11 samples: only the value with 10 beyond qualifies, which is below
  // the median, so the median is reported.
  v = ramp(11);
  q = pb::quantile(v, 99.0);
  EXPECT(near(q.value, 6.0));

  // The median itself is plain nearest-rank.
  v = ramp(100);
  q = pb::quantile(v, 50.0);
  EXPECT(near(q.value, 50.0));
  EXPECT(near(q.percentile, 50.0));

  // An empty sample set reports zero samples.
  v.clear();
  q = pb::quantile(v, 99.0);
  EXPECT(q.samples == 0);
}

// A server that takes `service` ns per request, FIFO, and a generator
// that stalls from `stall_from` to `stall_to`: requests due during the
// stall are sent at stall_to. Latency from the due time must include the
// time the stall made them wait; the lag records the lateness.
void due_time_latency_under_stall() {
  const double rate = 1000.0;  // one request per ms
  const std::int64_t t0 = 1'000'000'000;
  pb::OpenLoopBook book(rate, t0);
  const std::int64_t service = 100'000;  // 0.1 ms
  const std::int64_t stall_from = t0 + 10'000'000;
  const std::int64_t stall_to = t0 + 30'000'000;  // 20 ms stall
  std::int64_t server_free = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::int64_t due = book.due(i);
    std::int64_t sent = due;
    if (due >= stall_from && due < stall_to) sent = stall_to;
    book.released(i, sent);
    const std::int64_t start = std::max(sent, server_free);
    server_free = start + service;
    book.done(i, server_free);
  }
  EXPECT(book.due(0) == t0);
  EXPECT(book.due(1) == t0 + 1'000'000);
  EXPECT(book.due_by(t0 - 1) == 0);
  EXPECT(book.due_by(t0) == 1);
  EXPECT(book.due_by(t0 + 2'500'000) == 3);

  // 20 requests were due during the stall; the first of them waited the
  // whole 20 ms, then the queue drained at 0.1 ms per request.
  std::vector<double> lat = book.latency_us();
  EXPECT(near(lat[10], 20'000.0 + 100.0));
  EXPECT(near(lat[29], 1'000.0 + 20 * 100.0));
  EXPECT(near(lat[0], 100.0));
  // Send-time latency would have hidden the stall; due-time latency
  // puts it in the tail: 22 of 100 samples exceed 1 ms.
  std::size_t slow = 0;
  for (double x : lat) slow += x > 1'000.0;
  EXPECT(slow == 22);
  std::vector<double> lat_copy = lat;
  const pb::Quantile p50 = pb::quantile(lat_copy, 50.0);
  EXPECT(near(p50.value, 100.0));
  std::vector<double> lag = book.lag_us();
  const pb::Quantile lag_p99 = pb::quantile(lag, 99.0);
  EXPECT(lag_p99.value >= 10'000.0);  // the generator ran late
}

void span_self_times() {
  using pb::Span;
  std::vector<Span> spans(5);
  // root [0, 100] with children [10, 30] and [20, 50] (overlapping) and
  // [90, 120] (sticks out of the parent); [12, 18] is a grandchild.
  spans[0] = {0, Span::kNoParent, 7, 0, 100};
  spans[1] = {1, 0, 7, 10, 30};
  spans[2] = {1, 0, 7, 20, 50};
  spans[3] = {2, 0, 7, 90, 120};
  spans[4] = {3, 1, 7, 12, 18};
  const std::vector<std::int64_t> self = pb::self_times(spans, 0, 5);
  EXPECT(self[0] == 100 - (40 + 10));  // covered: [10,50] and [90,100]
  EXPECT(self[1] == 20 - 6);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 6);

  // The tracer folds the same arithmetic into its per-name totals.
  pb::Tracer tracer(/*keep_limit=*/2);
  const std::uint32_t a = tracer.name_id("a");
  const std::uint32_t b = tracer.name_id("b");
  for (int r = 0; r < 3; ++r) {
    const std::uint32_t root = tracer.begin(a, static_cast<std::uint64_t>(r));
    const std::uint32_t child = tracer.begin(b, static_cast<std::uint64_t>(r));
    tracer.end(child);
    tracer.end(root);
  }
  const auto totals = tracer.totals();
  EXPECT(totals.at("a").count == 3);
  EXPECT(totals.at("b").count == 3);
  EXPECT(totals.at("a").self_ns + totals.at("b").total_ns ==
         totals.at("a").total_ns);
  // Only the first tree stays buffered; later trees were folded, dropped.
  EXPECT(tracer.spans().size() == 2);
  EXPECT(tracer.dropped() == 4);
  EXPECT(tracer.spans()[1].parent == 0);
}

}  // namespace

int main() {
  percentile_rule();
  due_time_latency_under_stall();
  span_self_times();
  if (g_failures == 0) std::printf("perfbench_tests: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
