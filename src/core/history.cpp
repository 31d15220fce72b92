#include "core/history.h"

namespace via {

HistoryAddResult HistoryWindow::add(const Observation& obs) {
  const std::uint64_t pk = as_pair_key(obs.src_as, obs.dst_as);
  // Silent packing collisions at 1M+-pair scale would corrupt unrelated
  // paths' aggregates; fail loudly in debug, reject (and count) in release.
  assert(path_key_fits(pk, obs.option) && "endpoint group / option id overflows path_key");
  if (!path_key_fits(pk, obs.option)) {
    ++rejected_;
    return HistoryAddResult::kKeyOutOfRange;
  }
  const std::uint64_t key = path_key(pk, obs.option);
  if (max_paths_ > 0 && paths_.find(key) == nullptr && paths_.size() >= max_paths_) {
    if (!evict_one()) return HistoryAddResult::kWindowFull;
  }
  auto& entry = paths_[key];
  if (entry.agg.count() == 0) {
    entry.pair_key = pk;
    entry.option = obs.option;
  }
  entry.ref = 1;
  std::array<double, kNumMetrics> raw{};
  std::array<double, kNumMetrics> lin{};
  for (std::size_t i = 0; i < kNumMetrics; ++i) {
    const Metric m = kAllMetrics[i];
    const double v = obs.perf.get(m);
    raw[i] = v;
    lin[i] = linearize(m, v);
  }
  entry.agg.accumulate(raw, lin);
  if (obs.ingress >= 0) {
    // Normalize the ingress relay to the pair's lower-numbered endpoint: if
    // the source was the higher endpoint, the lo side talks to the *other*
    // relay of the transit pair.
    const AsId lo = obs.src_as < obs.dst_as ? obs.src_as : obs.dst_as;
    if (obs.src_as == lo || options_ == nullptr) {
      entry.agg.ingress_lo = obs.ingress;
    } else {
      const RelayOption& o = options_->get(obs.option);
      entry.agg.ingress_lo = (obs.ingress == o.a) ? o.b : o.a;
    }
  }
  ++observations_;
  return HistoryAddResult::kAdded;
}

bool HistoryWindow::evict_one() {
  if (paths_.empty()) return false;
  // Second chance: clear reference bits until an untouched path turns up.
  // Bounded by 2 * capacity slots: after one full revolution every bit is
  // clear, so the sweep must stop.  The hand is plain slot state, so the
  // victim sequence is a deterministic function of the add() sequence.
  std::uint64_t victim = 0;
  paths_.clock_sweep(clock_hand_, [&](std::uint64_t key, Entry& entry) {
    if (entry.ref != 0) {
      entry.ref = 0;
      return false;
    }
    victim = key;
    return true;
  });
  paths_.erase(victim);
  ++evictions_;
  return true;
}

const PathAggregate* HistoryWindow::find(std::uint64_t pair_key, OptionId option) const {
  const Entry* entry = paths_.find(path_key(pair_key, option));
  return entry != nullptr ? &entry->agg : nullptr;
}

void HistoryWindow::clear() {
  paths_.clear();
  paths_.shrink_to_fit();
  observations_ = 0;
  clock_hand_ = 0;
}

}  // namespace via
