#include "sim/netsim.hpp"

#include <algorithm>

#include "core/access_model.hpp"
#include "core/plan_scratch.hpp"

namespace skp {

std::vector<double> ServerCatalog::retrieval_times(
    const NetConfig& net) const {
  std::vector<double> r(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    r[i] = retrieval_time(static_cast<ItemId>(i), net);
  }
  return r;
}

namespace {

// Wraps a privately owned catalog for the legacy constructor. Validation
// runs here (once per catalog) so the shared path can skip the O(n) size
// scan for every session referencing an already-validated catalog.
std::shared_ptr<const SharedClientCatalog> wrap_catalog(
    ServerCatalog catalog, const NetConfig& net) {
  SKP_REQUIRE(net.bandwidth > 0.0, "bandwidth must be positive");
  SKP_REQUIRE(net.latency >= 0.0, "latency must be >= 0");
  validate_link_schedule(net.schedule);
  for (std::size_t i = 0; i < catalog.n(); ++i) {
    SKP_REQUIRE(catalog.sizes[i] > 0.0, "size[" << i << "] must be > 0");
  }
  auto cat = std::make_shared<SharedClientCatalog>();
  cat->server = std::move(catalog);
  cat->r = cat->server.retrieval_times(net);
  return cat;
}

const SharedClientCatalog& deref_catalog(
    const std::shared_ptr<const SharedClientCatalog>& cat) {
  SKP_REQUIRE(cat != nullptr, "ClientSession needs a catalog");
  return *cat;
}

// The plan request() commits: like the planning scratch, it dies with the
// call, so every session on a thread reuses the thread's one instance.
PrefetchPlan& thread_plan() {
  thread_local PrefetchPlan plan;
  return plan;
}

}  // namespace

ClientSession::ClientSession(ServerCatalog catalog, NetConfig net,
                             EngineConfig engine,
                             std::size_t cache_capacity)
    : ClientSession(wrap_catalog(std::move(catalog), net), std::move(net),
                    engine, cache_capacity) {}

ClientSession::ClientSession(
    std::shared_ptr<const SharedClientCatalog> catalog, NetConfig net,
    EngineConfig engine, std::size_t cache_capacity)
    : cat_(std::move(catalog)),
      net_(std::move(net)),
      engine_(engine),
      client_(deref_catalog(cat_).n(), cache_capacity) {
  SKP_REQUIRE(net_.bandwidth > 0.0, "bandwidth must be positive");
  SKP_REQUIRE(net_.latency >= 0.0, "latency must be >= 0");
  validate_link_schedule(net_.schedule);
  SKP_REQUIRE(cat_->r.size() == cat_->n(),
              "catalog retrieval-time vector size mismatch");
  completion_.assign(cat_->n(), 0.0);
  client_.cache.key_order(engine_.config().arbitration.sub, &client_.freq,
                          cat_->r);
}

void ClientSession::enable_plan_cache(std::size_t capacity) {
  if (engine_.plans_tier_applies()) {
    plan_cache_.emplace(engine_.config_digest(), capacity,
                        /*doorkeeper=*/true);
  }
  selection_cache_.emplace(engine_.config_digest(), capacity);
}

double ClientSession::link_utilization() const {
  return now_ > 0.0 ? link_busy_total_ / now_ : 0.0;
}

void ClientSession::run_until(double horizon) {
  // Finish times never decrease in queue order, and equal ones complete
  // in enqueue order, so the front-to-back sum is the event order.
  std::size_t done = 0;
  while (done < in_flight_.size() && in_flight_[done].finish <= horizon) {
    link_busy_total_ += in_flight_[done].busy;
    ++done;
  }
  in_flight_.erase(in_flight_.begin(),
                   in_flight_.begin() + static_cast<std::ptrdiff_t>(done));
  now_ = std::max(now_, horizon);
}

void ClientSession::set_fault_injection(const FaultSpec& spec, Rng stream) {
  validate_fault_spec(spec);
  SKP_REQUIRE(!(spec.enabled() && net_.cancel_pending_on_demand),
              "fault injection is not composable with "
              "cancel_pending_on_demand (cancel rollback assumes queued "
              "prefetches are cache-resident)");
  fault_ = spec;
  fault_rng_ = stream;
}

std::optional<double> ClientSession::enqueue_prefetch(ItemId item) {
  if (!fault_.enabled()) return enqueue_transfer(item);
  const double start = std::max(now_, link_free_at_);
  const FaultTransfer ft = run_faulty_transfer(
      fault_, fault_rng_, fault_stats_, start, [&](double attempt_start) {
        return net_.transfer_time(cat_->server.sizes[Instance::idx(item)],
                                  attempt_start);
      });
  // The link is held through every attempt; backoff gaps idle it, so
  // occupancy (ft.busy) is what counts toward utilization.
  link_free_at_ = ft.finish;
  in_flight_.push_back({item, start, ft.finish, ft.busy});
  if (!ft.delivered) return std::nullopt;
  return ft.finish;
}

double ClientSession::enqueue_transfer(ItemId item) {
  const double start = std::max(now_, link_free_at_);
  // Priced by the link phase in force at transfer START (the base static
  // r_i when no schedule is set); metrics keep charging the base r_i so
  // network_time stays comparable across schedules.
  const double duration =
      net_.transfer_time(cat_->server.sizes[Instance::idx(item)], start);
  const double finish = start + duration;
  link_free_at_ = finish;
  in_flight_.push_back({item, start, finish, finish - start});
  return finish;
}

double ClientSession::request(ItemId item, double viewing_time,
                              std::span<const double> next_probs,
                              std::optional<ItemId> oracle_next,
                              std::optional<std::uint64_t> context_key) {
  SKP_REQUIRE(item >= 0 && static_cast<std::size_t>(item) < cat_->n(),
              "item out of range");
  SKP_REQUIRE(viewing_time >= 0.0, "negative viewing time");
  SKP_REQUIRE(next_probs.size() == cat_->n(),
              "probability vector size mismatch");

  const double t0 = now_;
  // Plans on the caller's row, which must outlive this call.
  const InstanceView inst(next_probs, cat_->r, viewing_time);
  inst.validate();

  // Plan and commit prefetches (slots are reserved at enqueue time so the
  // planner never double-fetches an in-flight item; a request for such an
  // item waits for its completion).
  PlanMemo memo;
  if (selection_cache_ && context_key) {
    memo.plans = plan_cache_ ? &*plan_cache_ : nullptr;
    memo.selections = &*selection_cache_;
    memo.state_key = *context_key;
  }
  PrefetchPlan& plan = thread_plan();
  engine_.plan_with_cache(inst, client_.cache, &client_.freq, memo,
                          thread_plan_scratch(), plan, oracle_next);
  metrics_.solver_nodes += plan.solver_nodes;
  commit_plan(client_, plan, cat_->r, metrics_, /*counted=*/true,
              [&](ItemId f) {
                const std::optional<double> done = enqueue_prefetch(f);
                if (done) completion_[Instance::idx(f)] = *done;
                return done.has_value();
              });

  // The user views for `viewing_time`, then requests `item`.
  const double t_req = t0 + viewing_time;
  run_until(t_req);

  const bool hit = client_.cache.contains(item);
  if (!hit && net_.cancel_pending_on_demand) {
    // Extension: drop queued prefetches that have not started yet and
    // free their cache slots (their victims are already gone): each
    // leaves unrequested, so it is a wasted prefetch whose wire time is
    // refunded. Starts never decrease in queue order, so they form a
    // suffix, and it holds only prefetches: a demand fetch starts before
    // its own request() returns.
    const auto first = std::partition_point(
        in_flight_.begin(), in_flight_.end(),
        [&](const Transfer& t) { return t.start < t_req; });
    for (auto t = first; t != in_flight_.end(); ++t) {
      client_.cache.erase(t->item);
      if (client_.book.evicted(t->item)) ++metrics_.wasted_prefetches;
      const double rt = cat_->r[Instance::idx(t->item)];
      metrics_.network_time -= rt;
      metrics_.prefetch_network_time -= rt;
      --metrics_.prefetch_fetches;
    }
    in_flight_.erase(first, in_flight_.end());
    link_free_at_ =
        in_flight_.empty() ? now_ : std::max(now_, in_flight_.back().finish);
  }
  // A demand miss must claim a victim when the cache is full, chosen
  // under the row in force during the cycle.
  serve_request(client_, item, cat_->r, engine_.config().arbitration,
                metrics_, /*counted=*/true, [&] { return inst; });
  double T = 0.0;
  if (hit) {
    T = std::max(0.0, completion_[Instance::idx(item)] - t_req);
  } else {
    // The demand fetch waits behind every committed prefetch (the
    // paper's no-abort assumption).
    const double finish = enqueue_transfer(item);
    completion_[Instance::idx(item)] = finish;
    T = finish - t_req;
  }
  run_until(t_req + T);
  metrics_.access_time.add(T);
  ++metrics_.requests;
  if (T == 0.0) ++metrics_.hits;
  return T;
}

}  // namespace skp
