#include "core/via_policy.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "obs/timer.h"
#include "util/thread_pool.h"

namespace via {

void ViaPolicy::set_peer_segment_source(PeerSegmentSource source) {
  const std::lock_guard lock(prepare_mutex_);
  peer_segment_source_ = std::move(source);
}

void ViaPolicy::attach_telemetry(obs::Telemetry* telemetry) {
  inst_ = Instruments{};
  if (telemetry == nullptr) return;
  obs::MetricsRegistry& r = telemetry->registry;
  inst_.trace = &telemetry->decisions;
  inst_.ring = telemetry->decisions.enabled();
  inst_.tracer = telemetry->tracer_if_enabled();
  inst_.flight = telemetry->flight_if_enabled();
  inst_.ucb = &r.counter("policy.decision.ucb");
  inst_.epsilon_explore = &r.counter("policy.decision.epsilon_explore");
  inst_.budget_veto = &r.counter("policy.decision.budget_veto");
  inst_.fallback_direct = &r.counter("policy.decision.fallback_direct");
  inst_.quarantined_relay = &r.counter("policy.decision.quarantined_relay");
  inst_.fallback_direct_outage = &r.counter("policy.decision.fallback_direct_outage");
  inst_.health_quarantine_events = &r.counter("policy.health.quarantine_events");
  inst_.health_readmissions = &r.counter("policy.health.readmissions");
  inst_.health_quarantined = &r.gauge("policy.health.quarantined");
  inst_.health_degraded = &r.gauge("policy.health.degraded");
  inst_.choice_direct = &r.counter("policy.choice.direct");
  inst_.choice_bounce = &r.counter("policy.choice.bounce");
  inst_.choice_transit = &r.counter("policy.choice.transit");
  inst_.refreshes = &r.counter("policy.refresh.count");
  inst_.predict_considered = &r.counter("policy.predict.considered");
  inst_.predict_valid = &r.counter("policy.predict.valid");
  inst_.tomography_segments = &r.gauge("policy.refresh.tomography_segments");
  inst_.tomography_sweeps = &r.gauge("policy.refresh.tomography_sweeps");
  const std::vector<double> topk_bounds = obs::LatencyHistogram::linear_bounds(0.0, 1.0, 11);
  inst_.topk_size = &r.histogram("policy.topk.size", topk_bounds);
  const std::vector<double> latency_bounds(obs::kLatencyBoundsUs.begin(),
                                           obs::kLatencyBoundsUs.end());
  inst_.refresh_prepare_us = &r.histogram("policy.refresh.prepare_us", latency_bounds);
  inst_.refresh_swap_us = &r.histogram("policy.refresh.swap_us", latency_bounds);
  inst_.mem_window_bytes = &r.gauge("policy.mem.window_bytes");
  inst_.mem_snapshot_bytes = &r.gauge("policy.mem.snapshot_bytes");
  inst_.mem_store_bytes = &r.gauge("policy.mem.store_bytes");
  inst_.mem_total_bytes = &r.gauge("policy.mem.total_bytes");
  inst_.mem_resident_pairs = &r.gauge("policy.mem.resident_pairs");
  inst_.mem_window_evictions = &r.gauge("policy.mem.window_evictions");
  inst_.mem_store_evictions = &r.gauge("policy.mem.store_evictions");
  inst_.mem_rejected_keys = &r.gauge("policy.mem.rejected_keys");
  inst_.mem_memo_overflow = &r.gauge("policy.mem.memo_overflow_builds");
}

void ViaPolicy::trace_decision(const CallContext& call, OptionId option,
                               obs::DecisionReason reason, std::span<const RankedOption> top_k,
                               std::int64_t bandit_pulls) {
  if (inst_.trace == nullptr) return;
  switch (reason) {
    case obs::DecisionReason::Ucb:
      inst_.ucb->inc();
      break;
    case obs::DecisionReason::EpsilonExplore:
      inst_.epsilon_explore->inc();
      break;
    case obs::DecisionReason::BudgetVeto:
      inst_.budget_veto->inc();
      break;
    case obs::DecisionReason::FallbackDirect:
      inst_.fallback_direct->inc();
      break;
    case obs::DecisionReason::QuarantinedRelay:
      inst_.quarantined_relay->inc();
      break;
    case obs::DecisionReason::FallbackDirectOutage:
      inst_.fallback_direct_outage->inc();
      break;
    case obs::DecisionReason::BackgroundRelay:
      break;  // engine-tagged, never emitted by the policy
  }
  // Reason counters above are cheap relaxed atomics and always tallied;
  // building and recording the full event only pays off when the ring can
  // actually retain it.
  if (!inst_.ring) return;
  obs::DecisionEvent event;
  event.call_id = call.id;
  event.time = call.time;
  event.src_as = call.src_as;
  event.dst_as = call.dst_as;
  event.option = option;
  event.reason = reason;
  event.top_k_size = static_cast<std::int32_t>(top_k.size());
  event.bandit_pulls = bandit_pulls;
  for (const RankedOption& r : top_k) {
    if (r.option == option) {
      event.predicted = r.pred.mean;
      break;
    }
  }
  inst_.trace->record(event);
}

namespace {
std::uint64_t next_policy_uid() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const ModelSnapshot> make_cold_snapshot(const RelayOptionTable& options,
                                                        const BackboneFn& backbone,
                                                        const ViaConfig& config) {
  auto snap = std::make_shared<ModelSnapshot>(options, backbone, config.target,
                                              config.predictor, config.topk);
  snap->set_memo_budget(config.mem.snapshot_memo_budget);
  return snap;
}
}  // namespace

ViaPolicy::ViaPolicy(const RelayOptionTable& options, BackboneFn backbone, ViaConfig config)
    : options_(&options),
      config_(config),
      backbone_(std::move(backbone)),
      current_window_(&options),
      snapshot_(make_cold_snapshot(options, backbone_, config)),
      policy_uid_(next_policy_uid()),
      store_(config.seed, config.serving_stripes, config.budget, config.relay_share_cap),
      health_(config.health) {
  current_window_.set_max_paths(config_.mem.max_window_paths);
}

ViaPolicy::~ViaPolicy() = default;

void ViaPolicy::refresh(TimeSec now) {
  prepare_refresh(now);
  commit_refresh(now);
}

void ViaPolicy::prepare_refresh(TimeSec now) {
  if (inst_.flight != nullptr) {
    inst_.flight->record(obs::FlightEventKind::RefreshPrepare,
                         "refresh prepare: harvesting window, training predictor", -1, -1, now);
  }
  const obs::ScopedTimer prepare_timer(inst_.refresh_prepare_us);
  // One prepare at a time; serving (choose/observe) continues throughout —
  // everything below touches only the staged snapshot, the window under
  // its own mutex, and per-stripe state under the stripe locks.
  const std::lock_guard prepare_lock(prepare_mutex_);

  // The window that just completed becomes the staged snapshot's training
  // window; a fresh one starts accumulating in its place.  Observations
  // arriving between prepare and commit belong to the next period.
  HistoryWindow completed(options_);
  completed.set_max_paths(config_.mem.max_window_paths);
  {
    const std::lock_guard lock(window_mutex_);
    std::swap(completed, current_window_);
  }
  // The completed window's eviction/rejection tallies die with the window
  // (it moves into the snapshot and is eventually dropped), so fold them
  // into the lifetime totals now.
  window_evictions_total_.fetch_add(completed.evictions(), std::memory_order_relaxed);
  window_rejected_total_.fetch_add(completed.rejected(), std::memory_order_relaxed);
  const std::shared_ptr<const ModelSnapshot> current = model();
  auto building = std::make_shared<ModelSnapshot>(
      *options_, backbone_, config_.target, config_.predictor, config_.topk,
      current->period() + 1, std::move(completed));
  if (peer_segment_source_) {
    // Federation fold-in (§6k): pooled peer segments join the freshly
    // trained solver before any pair memo derives from it.  An empty
    // source keeps the snapshot bit-identical to a standalone build.
    std::vector<PeerSegment> peers = peer_segment_source_();
    if (!peers.empty()) {
      const std::size_t folded = building->fold_peer_segments(std::move(peers));
      peer_segments_folded_.fetch_add(static_cast<std::int64_t>(folded),
                                      std::memory_order_relaxed);
    }
  }
  building->set_memo_budget(config_.mem.snapshot_memo_budget);
  std::shared_ptr<const ModelSnapshot> next = std::move(building);

  if (config_.prewarm_pairs) {
    // Pairs that carried traffic this period (their serving state was
    // armed for the outgoing snapshot) get their memos rebuilt eagerly so
    // the first post-publication call per pair skips the cold build.
    std::vector<PairServingState> warm;
    for (std::size_t i = 0; i < store_.stripe_count(); ++i) {
      PairStateStore::Stripe& stripe = store_.stripe_at(i);
      const std::lock_guard stripe_lock(stripe.mutex);
      stripe.pairs.for_each([&](std::uint64_t /*key*/, const PairServingState& state) {
        if (state.period != current->period() || state.options.empty()) return;
        PairServingState copy;
        copy.src_as = state.src_as;
        copy.dst_as = state.dst_as;
        copy.key_src = state.key_src;
        copy.key_dst = state.key_dst;
        copy.options = state.options;
        warm.push_back(std::move(copy));
      });
    }
    std::vector<CallContext> contexts;
    contexts.reserve(warm.size());
    for (const PairServingState& w : warm) {
      CallContext ctx;
      ctx.src_as = w.src_as;
      ctx.dst_as = w.dst_as;
      ctx.key_src = w.key_src;
      ctx.key_dst = w.key_dst;
      ctx.options = w.options;
      contexts.push_back(ctx);
    }
    const int threads = std::max(1, config_.predictor.tomography.solve_threads);
    if (threads > 1 && refresh_pool_ == nullptr) {
      refresh_pool_ = std::make_unique<ThreadPool>(threads);
    }
    next->prewarm(contexts, this, threads > 1 ? refresh_pool_.get() : nullptr);
  }

  pending_ = std::move(next);
}

void ViaPolicy::commit_refresh(TimeSec now) {
  std::unique_lock lock(prepare_mutex_);
  if (pending_ == nullptr) {
    // Nothing prepared: a host driving only commit gets the monolithic
    // behavior (build inline, then publish below).
    lock.unlock();
    prepare_refresh(now);
    lock.lock();
  }
  // The exclusive section the host stalls serving for is just this swap.
  const obs::ScopedTimer swap_timer(inst_.refresh_swap_us);
  // Per-pair serving states are invalidated lazily: choose() re-arms a
  // pair's bandit when its recorded period trails the published one.
  // Publishing under prepare_mutex_ means no prepare can read the outgoing
  // model between taking pending_ and this store, so every published
  // snapshot has a period of its own — what the memo views cached per pair
  // (PairServingState::view) rely on.
  snapshot_.store(std::move(pending_), std::memory_order_release);
  // Publish the new epoch only after the pointer itself: a reader that
  // observes the bumped version (acquire) is guaranteed to reload at least
  // this snapshot; a reader that still sees the old version serves the old
  // snapshot, exactly as an in-flight choose() pinned before the swap does.
  snapshot_version_.fetch_add(1, std::memory_order_release);
  lock.unlock();
  if (inst_.flight != nullptr) {
    inst_.flight->record(obs::FlightEventKind::RefreshCommit, "refresh commit: snapshot published",
                         static_cast<std::int64_t>(model()->period()), -1, now);
  }
  if (inst_.refreshes != nullptr) {
    inst_.refreshes->inc();
    const Predictor& predictor = model()->predictor();
    inst_.tomography_segments->set(
        static_cast<double>(predictor.tomography().segment_count()));
    inst_.tomography_sweeps->set(static_cast<double>(predictor.tomography().last_sweeps()));
  }

  // §6i: shed cold serving state at the period boundary.  commit_refresh
  // runs under the host's exclusive lock, so the store is quiescent — the
  // one place eviction can run without racing a concurrent re-arm.
  if (config_.mem.pair_ttl_periods > 0) {
    store_.evict_stale(model()->period(), config_.mem.pair_ttl_periods);
  }
  if (config_.mem.max_resident_pairs > 0) {
    store_.enforce_resident_cap(config_.mem.max_resident_pairs);
  }
  if (inst_.mem_total_bytes != nullptr) {
    const MemoryStats m = memory_stats();
    inst_.mem_window_bytes->set(static_cast<double>(m.window_bytes));
    inst_.mem_snapshot_bytes->set(static_cast<double>(m.snapshot_bytes));
    inst_.mem_store_bytes->set(static_cast<double>(m.store_bytes));
    inst_.mem_total_bytes->set(static_cast<double>(m.total_bytes()));
    inst_.mem_resident_pairs->set(static_cast<double>(m.resident_pairs));
    inst_.mem_window_evictions->set(static_cast<double>(m.window_evictions));
    inst_.mem_store_evictions->set(static_cast<double>(m.store_evictions));
    inst_.mem_rejected_keys->set(static_cast<double>(m.window_rejected));
    inst_.mem_memo_overflow->set(static_cast<double>(m.memo_overflow_builds));
  }
}

ViaPolicy::MemoryStats ViaPolicy::memory_stats() {
  MemoryStats m;
  {
    const std::lock_guard lock(window_mutex_);
    m.window_bytes = current_window_.approx_bytes();
    m.window_paths = current_window_.size();
    m.window_evictions =
        window_evictions_total_.load(std::memory_order_relaxed) + current_window_.evictions();
    m.window_rejected =
        window_rejected_total_.load(std::memory_order_relaxed) + current_window_.rejected();
  }
  const std::shared_ptr<const ModelSnapshot> snap = model();
  m.snapshot_bytes = snap->approx_bytes();
  m.memo_overflow_builds = snap->memo_overflow_builds();
  m.store_bytes = store_.approx_bytes();
  m.resident_pairs = store_.resident_pairs();
  m.store_evictions = store_.evicted_total();
  return m;
}

void ViaPolicy::on_pair_built(const CallContext& call, std::span<const Prediction> preds,
                              std::span<const RankedOption> top_k,
                              const TopKCoverage& coverage) {
  if (inst_.trace != nullptr) {
    inst_.predict_considered->inc(coverage.considered);
    inst_.predict_valid->inc(coverage.predictable);
    inst_.topk_size->observe(static_cast<double>(top_k.size()));
  }

  // Active-measurement wishlist (§7): candidate options this pair cannot
  // predict are coverage holes worth probing.
  const std::lock_guard lock(wishlist_mutex_);
  if (probe_wishlist_.size() >= kProbeWishlistCapacity) return;
  for (std::size_t i = 0; i < call.options.size(); ++i) {
    const OptionId opt = call.options[i];
    if (opt == RelayOptionTable::direct_id()) continue;
    if (preds[i].valid) continue;  // predictable => not a hole
    probe_wishlist_.push_back({call.src_as, call.dst_as, opt});
    if (probe_wishlist_.size() >= kProbeWishlistCapacity) break;
  }
}

std::vector<ProbeRequest> ViaPolicy::plan_probes(std::size_t max_probes) {
  const std::lock_guard lock(wishlist_mutex_);
  std::vector<ProbeRequest> out;
  const std::size_t n = std::min(max_probes, probe_wishlist_.size());
  out.assign(probe_wishlist_.end() - static_cast<std::ptrdiff_t>(n), probe_wishlist_.end());
  probe_wishlist_.clear();
  return out;
}

std::vector<RankedOption> ViaPolicy::top_k_for(const CallContext& call) const {
  // The cold-build side effects (wishlist, telemetry tallies) live in the
  // policy's mutable half behind their own locks, so observing from a
  // const accessor is sound.
  auto* observer = const_cast<ViaPolicy*>(this);
  const ModelSnapshot::PairView pair = model()->pair_model(call, observer);
  return {pair.top_k.begin(), pair.top_k.end()};
}

void ViaPolicy::count_choice(OptionId option) {
  switch (options_->get(option).kind) {
    case RelayKind::Direct:
      store_.stats.chose_direct.inc();
      if (inst_.choice_direct != nullptr) inst_.choice_direct->inc();
      break;
    case RelayKind::Bounce:
      store_.stats.chose_bounce.inc();
      if (inst_.choice_bounce != nullptr) inst_.choice_bounce->inc();
      break;
    case RelayKind::Transit:
      store_.stats.chose_transit.inc();
      if (inst_.choice_transit != nullptr) inst_.choice_transit->inc();
      break;
  }
}

const std::shared_ptr<const ModelSnapshot>& ViaPolicy::model_cached() const noexcept {
  struct Pin {
    std::uint64_t uid = 0;  ///< 0 never matches a real policy_uid_
    std::uint64_t version = 0;
    std::shared_ptr<const ModelSnapshot> snap;
  };
  thread_local Pin pin;
  const std::uint64_t version = snapshot_version_.load(std::memory_order_acquire);
  if (pin.uid != policy_uid_ || pin.version != version) {
    // A publish may land between the two loads; then the pin holds a
    // *newer* snapshot than `version` claims and the next call reloads —
    // never the reverse, so a stale snapshot is never served once the
    // version bump is visible.
    pin.snap = snapshot_.load(std::memory_order_acquire);
    pin.uid = policy_uid_;
    pin.version = version;
  }
  return pin.snap;
}

OptionId ViaPolicy::choose(const CallContext& call) { return choose_with(*model_cached(), call); }

void ViaPolicy::choose_batch(std::span<const CallContext> calls, std::span<OptionId> out) {
  // One snapshot pin for the whole batch (§6h): the reactor decodes many
  // decision requests per readiness event and lands them here.
  const ModelSnapshot& snap = *model_cached();
  for (std::size_t i = 0; i < calls.size(); ++i) out[i] = choose_with(snap, calls[i]);
}

OptionId ViaPolicy::choose_with(const ModelSnapshot& snap, const CallContext& call) {
  ServingStats& stats = store_.stats;
  stats.calls.inc();

  // §6g request tracing.  With no tracer attached (the default) this whole
  // scope is one null-pointer test; with one attached but the trace not
  // sampled it adds one hash.  Only sampled calls read the clock — the
  // stage() marks below are no-ops otherwise — and nothing here touches
  // RNG or decision state, so traced and untraced replays stay
  // bit-identical.
  obs::StagedSpan span(
      inst_.tracer,
      inst_.tracer != nullptr
          ? (call.trace_id != 0 ? call.trace_id
                                : obs::derive_trace_id(static_cast<std::uint64_t>(call.id)))
          : 0,
      call.parent_span, "policy.choose");

  // `snap` pins the published model for the whole decision: a concurrent
  // refresh swaps the pointer but cannot invalidate what the caller loaded.
  const OptionId direct = RelayOptionTable::direct_id();
  const std::uint64_t key = call.pair_key();
  PairStateStore::Stripe& stripe = store_.stripe(key);
  std::unique_lock lock(stripe.mutex);

  PairServingState* state = stripe.pairs.find(key);
  ModelSnapshot::PairView pair;
  if (state != nullptr && state->period == snap.period() && state->view.resident) {
    // Warm: armed for this snapshot, whose memo holds the view.  The
    // decision writes nothing outside this stripe (and the counters).
    pair = state->view;
  } else {
    // Arming, or an over-budget pair.  A view the memo already holds
    // (pre-warmed, or built by an earlier call) is read under the stripe
    // lock: one critical section, as before warm serving.  Anything else
    // is built outside the stripe lock; once the lock is back the state
    // is looked up again (the stripe's table may have rehashed meanwhile)
    // and its period checked again.
    stats.snapshot_lookups.inc();
    if (const std::optional<ModelSnapshot::PairView> resident = snap.resident_view(key)) {
      pair = *resident;
    } else {
      lock.unlock();
      pair = snap.pair_model(call, this);
      lock.lock();
      state = nullptr;
    }
    span.stage("snapshot_topk");
    if (state == nullptr) state = &stripe.pairs[key];
    if (state->period != snap.period()) {
      // Surviving arms keep decayed statistics from the adjacent period.
      const bool adjacent_period = (state->period + 1 == snap.period());
      state->period = snap.period();
      state->bandit.set_arms(pair.top_k, config_.bandit,
                             adjacent_period ? &state->bandit : nullptr);
      if (config_.prewarm_pairs) {
        // Once per pair and period: capture the pre-warm context the next
        // prepare_refresh() rebuilds this pair's memo from.
        state->src_as = call.src_as;
        state->dst_as = call.dst_as;
        state->key_src = call.key_src;
        state->key_dst = call.key_dst;
        state->options.assign(call.options.begin(), call.options.end());
      }
    }
    // Never keep a scratch-served view: the next over-budget build on
    // this thread overwrites it.
    state->view = pair.resident ? pair : ModelSnapshot::PairView{};
  }
  store_.budget_on_call(pair.predicted_benefit);
  span.stage("pair_state");

  // §6f relay health: with the state machine enabled AND at least one
  // relay possibly quarantined, picks that ride a blocked relay are
  // filtered.  The healthy-fleet fast path is one relaxed load; disabled,
  // the whole block folds to `false` and the decision flow (including
  // every RNG draw) is bit-identical to a health-unaware policy.
  const bool health_active = config_.health.enabled && health_.maybe_blocked();
  auto health_blocks = [&](OptionId opt) {
    return health_active && opt != direct &&
           health_.option_blocked(options_->get(opt), call.time);
  };

  // Stage 4b: ε general exploration over *all* candidate options, keeping
  // the pruning honest under non-stationary performance.  Exploration
  // calls bypass the benefit threshold but still consume budget tokens.
  if (!call.options.empty() && stripe.rng.uniform() < config_.epsilon) {
    span.name_tail("epsilon_pick");
    const OptionId pick =
        call.options[static_cast<std::size_t>(stripe.rng.uniform_index(call.options.size()))];
    if (health_blocks(pick)) {
      // Exploration must not hand traffic to a quarantined relay; the
      // probe that re-admits it comes from probation, not from ε.
      stats.quarantine_rerouted.inc();
      count_choice(direct);
      trace_decision(call, direct, obs::DecisionReason::QuarantinedRelay, pair.top_k,
                     state->bandit.total_plays());
      return direct;
    }
    if (pick == direct ||
        (store_.budget_allow_relay(std::numeric_limits<double>::infinity()) &&
         store_.relay_cap_allows(options_->get(pick)))) {
      stats.epsilon_explored.inc();
      count_choice(pick);
      trace_decision(call, pick, obs::DecisionReason::EpsilonExplore, pair.top_k,
                     state->bandit.total_plays());
      return pick;
    }
    stats.budget_denied.inc();
    count_choice(direct);
    trace_decision(call, direct, obs::DecisionReason::BudgetVeto, pair.top_k,
                   state->bandit.total_plays());
    return direct;
  }

  // Stage 4a: modified-UCB1 over the top-k candidates.
  OptionId pick = state->bandit.pick(config_.bandit);
  span.stage("bandit_pick");
  span.name_tail("budget");
  if (pick == kInvalidOption) {
    // Cold start: no predictable candidate yet.
    span.name_tail("fallback_direct");
    stats.cold_start_direct.inc();
    count_choice(direct);
    trace_decision(call, direct, obs::DecisionReason::FallbackDirect, pair.top_k,
                   state->bandit.total_plays());
    return direct;
  }
  obs::DecisionReason served_reason = obs::DecisionReason::Ucb;
  bool rerouted = false;
  if (health_blocks(pick)) {
    // The bandit's pick rides a quarantined relay: substitute its best
    // unblocked arm, or fall all the way back to direct when the outage
    // has taken the entire candidate set down.
    pick = state->bandit.pick_if(config_.bandit, [&](OptionId o) { return !health_blocks(o); });
    span.stage("health_filter");
    if (pick == kInvalidOption) {
      stats.outage_fallback_direct.inc();
      if (inst_.flight != nullptr) {
        inst_.flight->record(obs::FlightEventKind::OutageFallback,
                             "all top-k candidates quarantined; served direct",
                             static_cast<std::int64_t>(call.src_as),
                             static_cast<std::int64_t>(call.dst_as), call.time);
      }
      count_choice(direct);
      trace_decision(call, direct, obs::DecisionReason::FallbackDirectOutage, pair.top_k,
                     state->bandit.total_plays());
      return direct;
    }
    served_reason = obs::DecisionReason::QuarantinedRelay;
    rerouted = true;
  }
  if (pick != direct) {
    if (!store_.budget_allow_relay(pair.predicted_benefit)) {
      stats.budget_denied.inc();
      count_choice(direct);
      trace_decision(call, direct, obs::DecisionReason::BudgetVeto, pair.top_k,
                     state->bandit.total_plays());
      return direct;
    }
    if (!store_.relay_cap_allows(options_->get(pick))) {
      stats.relay_cap_denied.inc();
      count_choice(direct);
      trace_decision(call, direct, obs::DecisionReason::BudgetVeto, pair.top_k,
                     state->bandit.total_plays());
      return direct;
    }
  }
  (rerouted ? stats.quarantine_rerouted : stats.bandit_served)
      .inc();
  count_choice(pick);
  trace_decision(call, pick, served_reason, pair.top_k, state->bandit.total_plays());
  return pick;
}

void ViaPolicy::observe(const Observation& obs) {
  {
    // One insertion point keeps observation order — and with it the next
    // period's tomography solve — identical to the serial execution.
    const std::lock_guard lock(window_mutex_);
    current_window_.add(obs);
  }
  if (inst_.ring) {
    inst_.trace->fill_observed(obs.id, obs.perf.get(config_.target));
  }

  {
    const std::uint64_t period = model_cached()->period();
    const std::uint64_t key = as_pair_key(obs.src_as, obs.dst_as);
    PairStateStore::Stripe& stripe = store_.stripe(key);
    const std::lock_guard lock(stripe.mutex);
    PairServingState* state = stripe.pairs.find(key);
    if (state != nullptr && state->period == period) {
      state->bandit.observe(obs.option, obs.perf.get(config_.target));
    }
  }

  // §6f relay health: classify the observation against the catastrophic
  // thresholds and advance the state machine of every relay it rode.
  if (config_.health.enabled) {
    const RelayOption& ropt = options_->get(obs.option);
    if (ropt.kind != RelayKind::Direct) {
      const bool failed = obs.perf.rtt_ms >= config_.health.failure_rtt_ms ||
                          obs.perf.loss_pct >= config_.health.failure_loss_pct;
      const RelayHealthTracker::Transition t = health_.record(ropt, failed, obs.time);
      if ((t.entered_quarantine || t.readmitted) && inst_.trace != nullptr) {
        if (t.entered_quarantine) inst_.health_quarantine_events->inc();
        if (t.readmitted) inst_.health_readmissions->inc();
        const RelayHealthTracker::Counts counts = health_.counts(obs.time);
        inst_.health_quarantined->set(static_cast<double>(counts.quarantined));
        inst_.health_degraded->set(static_cast<double>(counts.degraded));
      }
      if ((t.entered_quarantine || t.readmitted) && inst_.flight != nullptr) {
        inst_.flight->record(t.entered_quarantine ? obs::FlightEventKind::HealthQuarantine
                                                  : obs::FlightEventKind::HealthReadmit,
                             t.entered_quarantine
                                 ? "relay quarantined after catastrophic observations"
                                 : "relay readmitted after clean probation",
                             static_cast<std::int64_t>(obs.option), -1, obs.time);
      }
    }
  }
}

ViaPolicy::Stats ViaPolicy::stats() const noexcept {
  const ServingStats& s = store_.stats;
  Stats out;
  out.calls = s.calls.value();
  out.epsilon_explored = s.epsilon_explored.value();
  out.bandit_served = s.bandit_served.value();
  out.cold_start_direct = s.cold_start_direct.value();
  out.budget_denied = s.budget_denied.value();
  out.relay_cap_denied = s.relay_cap_denied.value();
  out.quarantine_rerouted = s.quarantine_rerouted.value();
  out.outage_fallback_direct = s.outage_fallback_direct.value();
  out.chose_direct = s.chose_direct.value();
  out.chose_bounce = s.chose_bounce.value();
  out.chose_transit = s.chose_transit.value();
  out.snapshot_lookups = s.snapshot_lookups.value();
  return out;
}

}  // namespace via
