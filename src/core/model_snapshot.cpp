#include "core/model_snapshot.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/thread_pool.h"

namespace via {

ModelSnapshot::ModelSnapshot(const RelayOptionTable& options, BackboneFn backbone, Metric target,
                             const PredictorConfig& predictor_config,
                             const TopKConfig& topk_config)
    : options_(&options),
      target_(target),
      topk_(topk_config),
      window_(&options),
      predictor_(options, std::move(backbone), predictor_config) {}

ModelSnapshot::ModelSnapshot(const RelayOptionTable& options, BackboneFn backbone, Metric target,
                             const PredictorConfig& predictor_config,
                             const TopKConfig& topk_config, std::uint64_t period,
                             HistoryWindow&& window)
    : options_(&options),
      target_(target),
      topk_(topk_config),
      period_(period),
      window_(std::move(window)),
      predictor_(options, std::move(backbone), predictor_config) {
  predictor_.train(window_);
}

void ModelSnapshot::build_pair_model(const CallContext& call, std::vector<Prediction>& preds,
                                     TopKCoverage& coverage, PairModel& out) const {
  predictor_.predict_into(call.key_src, call.key_dst, call.options, target_, preds);

  TopKScratch scratch;
  select_top_k_into(call.options, preds, topk_, &coverage, scratch, out.top_k);

  Prediction direct;
  for (std::size_t i = 0; i < call.options.size(); ++i) {
    if (call.options[i] == RelayOptionTable::direct_id()) {
      direct = preds[i];
      break;
    }
  }
  out.predicted_benefit = 0.0;
  if (direct.valid && !out.top_k.empty()) {
    double best = std::numeric_limits<double>::infinity();
    for (const RankedOption& r : out.top_k) best = std::min(best, r.pred.mean);
    out.predicted_benefit = direct.mean - best;
  }
}

std::optional<ModelSnapshot::PairView> ModelSnapshot::resident_view(std::uint64_t pair_key) const {
  return pair_models_.with_shared(pair_key, [&](const FlatMap<PairModel>& map) {
    const PairModel* model = map.find(pair_key);
    return model == nullptr
               ? std::nullopt
               : std::optional<PairView>(PairView{model->top_k, model->predicted_benefit, true});
  });
}

ModelSnapshot::PairView ModelSnapshot::pair_model(const CallContext& call,
                                                  PairBuildObserver* observer) const {
  const std::uint64_t key = call.pair_key();
  if (const std::optional<PairView> hit = resident_view(key)) return *hit;
  PairView view;

  // Cold pair at an exhausted memo budget: build into thread-local scratch
  // and serve that — identical bits, no growth, rebuilt on each touch.
  if (memo_budget_ > 0 && memo_count_.load(std::memory_order_relaxed) >= memo_budget_) {
    thread_local PairModel overflow_model;
    thread_local std::vector<Prediction> overflow_preds;
    TopKCoverage coverage;
    build_pair_model(call, overflow_preds, coverage, overflow_model);
    memo_overflow_.fetch_add(1, std::memory_order_relaxed);
    return {overflow_model.top_k, overflow_model.predicted_benefit, false};
  }

  // Cold pair: compute the model outside any lock (a pure function of the
  // snapshot and the call's candidate set), then publish it.
  PairModel built;
  std::vector<Prediction> preds;
  TopKCoverage coverage;
  build_pair_model(call, preds, coverage, built);

  const bool won = pair_models_.with_unique(key, [&](FlatMap<PairModel>& map) {
    if (map.find(key) != nullptr) return false;  // lost the build race
    PairModel& slot = map[key];
    slot = std::move(built);
    view = {slot.top_k, slot.predicted_benefit, true};
    return true;
  });
  if (!won) {
    // Another thread published first; its entry holds the identical bits.
    pair_models_.with_shared(key, [&](const FlatMap<PairModel>& map) {
      const PairModel* model = map.find(key);
      view = {model->top_k, model->predicted_benefit, true};
      return true;
    });
    return view;
  }
  memo_count_.fetch_add(1, std::memory_order_relaxed);
  if (observer != nullptr) observer->on_pair_built(call, preds, view.top_k, coverage);
  return view;
}

std::size_t ModelSnapshot::approx_bytes() const {
  std::size_t n = sizeof(*this) + window_.approx_bytes() + predictor_.approx_bytes() +
                  pair_models_.approx_bytes();
  pair_models_.for_each([&](std::uint64_t, const PairModel& model) {
    n += model.top_k.capacity() * sizeof(RankedOption);
  });
  return n;
}

void ModelSnapshot::prewarm(std::span<const CallContext> calls, PairBuildObserver* observer,
                            ThreadPool* pool) const {
  if (calls.empty()) return;
  // Worth forking only when there are a few pairs per worker; tiny warm
  // sets build inline (and so does every serial replay, keeping observer
  // side-effect order deterministic there).
  if (pool == nullptr || calls.size() < 2 * static_cast<std::size_t>(pool->thread_count())) {
    for (const CallContext& call : calls) (void)pair_model(call, observer);
    return;
  }
  const std::size_t workers = static_cast<std::size_t>(pool->thread_count());
  const std::size_t chunk = (calls.size() + workers - 1) / workers;
  for (std::size_t begin = 0; begin < calls.size(); begin += chunk) {
    const std::size_t end = std::min(calls.size(), begin + chunk);
    pool->submit([this, observer, calls, begin, end] {
      for (std::size_t i = begin; i < end; ++i) (void)pair_model(calls[i], observer);
    });
  }
  pool->wait_idle();
}

}  // namespace via
