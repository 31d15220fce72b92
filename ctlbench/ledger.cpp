#include "ledger.h"

#include <atomic>
#include <ostream>
#include <unordered_map>

namespace ctlbench {

namespace {

/// Never reused, so a thread's cached log pointer cannot leak into a new
/// ledger constructed at a dead one's address.
std::atomic<std::uint64_t> g_next_ledger_uid{1};

constexpr bool is_core(SpanName name) noexcept {
  return name == SpanName::kCoreChoose || name == SpanName::kCoreChooseBatch ||
         name == SpanName::kCoreObserve || name == SpanName::kCoreRefresh ||
         name == SpanName::kCorePrepare || name == SpanName::kCoreCommit;
}

}  // namespace

const char* span_name(SpanName name) noexcept {
  switch (name) {
    case SpanName::kRpcDecide:
      return "rpc.decide";
    case SpanName::kRpcReport:
      return "rpc.report";
    case SpanName::kRpcRefresh:
      return "rpc.refresh";
    case SpanName::kCoreChoose:
      return "core.choose";
    case SpanName::kCoreChooseBatch:
      return "core.choose_batch";
    case SpanName::kCoreObserve:
      return "core.observe";
    case SpanName::kCoreRefresh:
      return "core.refresh";
    case SpanName::kCorePrepare:
      return "core.prepare_refresh";
    case SpanName::kCoreCommit:
      return "core.commit_refresh";
    case SpanName::kSimPass:
      return "sim.replay_pass";
  }
  return "unknown";
}

Ledger::Ledger() : uid_(g_next_ledger_uid++) {}

bool Ledger::sampled(std::int64_t call_id) noexcept {
  auto z = static_cast<std::uint64_t>(call_id) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return (z & 63) == 0;
}

ThreadLog& Ledger::local() {
  thread_local std::uint64_t owner = 0;
  thread_local ThreadLog* log = nullptr;
  if (owner != uid_) {
    const std::lock_guard lock(mutex_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->thread_index = logs_.size();
    owner = uid_;
  }
  return *log;
}

std::uint64_t Ledger::record(ThreadLog& log, SpanName name, std::int64_t start,
                             std::int64_t end, std::int64_t call_id, std::uint32_t batch) {
  const std::uint64_t id = (log.thread_index << 40) | ++log.next_seq;
  log.spans.push_back(
      SpanRecord{start, end, call_id, id, root_.load(std::memory_order_relaxed), batch, name});
  return id;
}

std::uint64_t Ledger::begin_root() {
  ThreadLog& log = local();
  const std::uint64_t id = (log.thread_index << 40) | ++log.next_seq;
  root_.store(id, std::memory_order_relaxed);
  return id;
}

void Ledger::end_root(SpanName name, std::int64_t start, std::int64_t end) {
  const std::uint64_t id = root_.exchange(0, std::memory_order_relaxed);
  local().spans.push_back(SpanRecord{start, end, -1, id, 0, 1, name});
}

std::int64_t Ledger::core_ns() const {
  const std::lock_guard lock(mutex_);
  std::int64_t total = 0;
  for (const auto& log : logs_) total += log->core_ns;
  return total;
}

ThreadLog Ledger::totals() const {
  const std::lock_guard lock(mutex_);
  ThreadLog out;
  for (const auto& log : logs_) {
    out.choose_ns.merge(log->choose_ns);
    out.observe_ns.merge(log->observe_ns);
    out.batches += log->batches;
    out.batch_calls += log->batch_calls;
    out.core_ns += log->core_ns;
    out.prepare_ns.insert(out.prepare_ns.end(), log->prepare_ns.begin(), log->prepare_ns.end());
    out.commit_ns.insert(out.commit_ns.end(), log->commit_ns.begin(), log->commit_ns.end());
    out.samples.insert(out.samples.end(), log->samples.begin(), log->samples.end());
  }
  return out;
}

std::vector<SpanRecord> Ledger::spans() const {
  std::vector<SpanRecord> out;
  {
    const std::lock_guard lock(mutex_);
    for (const auto& log : logs_) out.insert(out.end(), log->spans.begin(), log->spans.end());
  }
  // A decision and its report share one call id: a choose span belongs
  // under the client's decide span, an observe span under its report span.
  std::unordered_map<std::int64_t, std::uint64_t> decide_by_call;
  std::unordered_map<std::int64_t, std::uint64_t> report_by_call;
  for (const SpanRecord& s : out) {
    if (s.name == SpanName::kRpcDecide) decide_by_call[s.call_id] = s.id;
    if (s.name == SpanName::kRpcReport) report_by_call[s.call_id] = s.id;
  }
  for (SpanRecord& s : out) {
    if (!is_core(s.name) || s.parent != 0 || s.call_id < 0) continue;
    const auto& index = s.name == SpanName::kCoreObserve ? report_by_call : decide_by_call;
    if (const auto it = index.find(s.call_id); it != index.end()) s.parent = it->second;
  }
  return out;
}

std::vector<double> Ledger::rpc_self_ns() const {
  const std::vector<SpanRecord> all = spans();
  std::unordered_map<std::uint64_t, double> core_share;  // rpc span id -> policy ns
  for (const SpanRecord& s : all) {
    if ((s.name == SpanName::kCoreChoose || s.name == SpanName::kCoreChooseBatch) &&
        s.parent != 0) {
      core_share[s.parent] +=
          static_cast<double>(s.end_ns - s.start_ns) / static_cast<double>(s.batch);
    }
  }
  std::vector<double> out;
  for (const SpanRecord& s : all) {
    if (s.name != SpanName::kRpcDecide) continue;
    const auto it = core_share.find(s.id);
    if (it == core_share.end()) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns) - it->second);
  }
  return out;
}

std::size_t Ledger::write_tsv(std::ostream& out) const {
  const std::vector<SpanRecord> all = spans();
  out << "name\tstart_ns\tend_ns\tspan_id\tparent_id\tcall_id\tbatch\n";
  for (const SpanRecord& s : all) {
    out << span_name(s.name) << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.id << '\t'
        << s.parent << '\t' << s.call_id << '\t' << s.batch << '\n';
  }
  return all.size();
}

// ------------------------------------------------------------ TracedPolicy

via::OptionId TracedPolicy::choose(const via::CallContext& call) {
  const std::int64_t t0 = mono_ns();
  const via::OptionId picked = inner_->choose(call);
  const std::int64_t t1 = mono_ns();
  ThreadLog& log = ledger_->local();
  log.choose_ns.add(static_cast<std::uint64_t>(t1 - t0));
  log.core_ns += t1 - t0;
  if (Ledger::sampled(call.id)) ledger_->record(log, SpanName::kCoreChoose, t0, t1, call.id);
  return picked;
}

void TracedPolicy::choose_batch(std::span<const via::CallContext> calls,
                                std::span<via::OptionId> out) {
  const std::int64_t t0 = mono_ns();
  inner_->choose_batch(calls, out);
  const std::int64_t t1 = mono_ns();
  ThreadLog& log = ledger_->local();
  const auto n = static_cast<std::uint32_t>(calls.size());
  const auto share = static_cast<std::uint64_t>((t1 - t0) / std::max<std::int64_t>(n, 1));
  for (const via::CallContext& call : calls) {
    log.choose_ns.add(share);
    if (Ledger::sampled(call.id)) {
      ledger_->record(log, SpanName::kCoreChooseBatch, t0, t1, call.id, n);
    }
  }
  ++log.batches;
  log.batch_calls += n;
  log.core_ns += t1 - t0;
}

void TracedPolicy::observe(const via::Observation& obs) {
  const std::int64_t t0 = mono_ns();
  inner_->observe(obs);
  const std::int64_t t1 = mono_ns();
  ThreadLog& log = ledger_->local();
  log.observe_ns.add(static_cast<std::uint64_t>(t1 - t0));
  log.core_ns += t1 - t0;
  if (Ledger::sampled(obs.id)) ledger_->record(log, SpanName::kCoreObserve, t0, t1, obs.id);
  if (log.samples.size() < ledger_->sample_cap()) {
    log.samples.push_back(SampleKey{obs.id, obs.time, obs.src_as, obs.dst_as, obs.option});
  }
}

void TracedPolicy::refresh(via::TimeSec now) {
  const std::int64_t t0 = mono_ns();
  inner_->refresh(now);
  const std::int64_t t1 = mono_ns();
  ThreadLog& log = ledger_->local();
  log.core_ns += t1 - t0;
  ledger_->record(log, SpanName::kCoreRefresh, t0, t1, -1);
}

void TracedPolicy::prepare_refresh(via::TimeSec now) {
  const std::int64_t t0 = mono_ns();
  inner_->prepare_refresh(now);
  const std::int64_t t1 = mono_ns();
  ThreadLog& log = ledger_->local();
  log.core_ns += t1 - t0;
  log.prepare_ns.push_back(static_cast<double>(t1 - t0));
  ledger_->record(log, SpanName::kCorePrepare, t0, t1, -1);
}

void TracedPolicy::commit_refresh(via::TimeSec now) {
  const std::int64_t t0 = mono_ns();
  inner_->commit_refresh(now);
  const std::int64_t t1 = mono_ns();
  ThreadLog& log = ledger_->local();
  log.core_ns += t1 - t0;
  log.commit_ns.push_back(static_cast<double>(t1 - t0));
  ledger_->record(log, SpanName::kCoreCommit, t0, t1, -1);
}

}  // namespace ctlbench
