// The benchmark's per-layer ledger, timed from outside the program.
//
// TracedPolicy is a RoutingPolicy decorator: it forwards every virtual call
// to the real policy and records a span around each one.  The load
// generators record the client-side round trip of the same call under the
// same call id, so a call's spans can be joined across threads and layers
// without any instrument inside src/.
//
// Every call is timed into per-thread aggregates (histograms, counts and
// totals).  Full span records are kept for a deterministic 1-in-64 sample
// of call ids (plus every refresh and replay pass), in memory until the
// run ends, when write_tsv() dumps them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "core/policy.h"
#include "stats.h"

namespace ctlbench {

enum class SpanName : std::uint8_t {
  kRpcDecide,       ///< client: DecisionRequest send -> DecisionResponse read
  kRpcReport,       ///< client: Report send -> ReportAck read
  kRpcRefresh,      ///< client: Refresh send -> RefreshAck read
  kCoreChoose,      ///< RoutingPolicy::choose
  kCoreChooseBatch, ///< RoutingPolicy::choose_batch (one record per sampled member)
  kCoreObserve,     ///< RoutingPolicy::observe
  kCoreRefresh,     ///< RoutingPolicy::refresh (monolithic; the replay engine)
  kCorePrepare,     ///< RoutingPolicy::prepare_refresh (the server's builder)
  kCoreCommit,      ///< RoutingPolicy::commit_refresh
  kSimPass,         ///< one SimulationEngine::run over the whole trace
};
[[nodiscard]] const char* span_name(SpanName name) noexcept;

struct SpanRecord {
  std::int64_t start_ns = 0;  ///< mono_ns()
  std::int64_t end_ns = 0;
  std::int64_t call_id = -1;  ///< -1 for spans that belong to no call
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root, or resolved by call id at export
  std::uint32_t batch = 1;    ///< calls served by the recorded policy entry
  SpanName name = SpanName::kCoreChoose;
};

/// One observation the policy ingested, kept so GroundTruth::sample_call
/// can be re-timed on exactly the stream the replay drew.
struct SampleKey {
  std::int64_t id = 0;
  std::int64_t time = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;
  std::int32_t option = 0;
};

/// Everything one thread recorded; merged after the recording threads
/// have been joined.
struct ThreadLog {
  std::vector<SpanRecord> spans;
  LogHistogram choose_ns;   ///< per call; a batch adds its duration / size per member
  LogHistogram observe_ns;
  std::int64_t batches = 0;
  std::int64_t batch_calls = 0;
  std::int64_t core_ns = 0;  ///< total time inside any policy call
  std::vector<double> prepare_ns;
  std::vector<double> commit_ns;
  std::vector<SampleKey> samples;
  std::uint64_t next_seq = 0;
  std::uint64_t thread_index = 0;
};

/// Steady-clock nanoseconds since the process first asked; every span and
/// latency in the benchmark is stamped with this one clock.
inline std::int64_t mono_ns() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

class Ledger {
 public:
  Ledger();

  /// Deterministic 1-in-64 sample of call ids (a hash, so strided id
  /// streams do not alias with it).
  [[nodiscard]] static bool sampled(std::int64_t call_id) noexcept;

  /// The calling thread's log (registered on first use).
  [[nodiscard]] ThreadLog& local();
  /// Appends a span to `log`, parented to the open root span (if any).
  std::uint64_t record(ThreadLog& log, SpanName name, std::int64_t start, std::int64_t end,
                       std::int64_t call_id, std::uint32_t batch = 1);
  /// Opens a root span (a replay pass): spans recorded until end_root()
  /// are its children.  One root at a time.
  std::uint64_t begin_root();
  void end_root(SpanName name, std::int64_t start, std::int64_t end);

  /// Each thread keeps its first `cap` observations for re-timing
  /// GroundTruth::sample_call (0 keeps none).
  void set_sample_cap(std::size_t cap) noexcept { sample_cap_.store(cap); }
  [[nodiscard]] std::size_t sample_cap() const noexcept { return sample_cap_.load(); }

  /// Merged views over every thread's log.  Call only while no other
  /// thread records.
  [[nodiscard]] std::int64_t core_ns() const;
  /// Every thread's aggregates summed and lists concatenated (spans left
  /// out; see spans()).
  [[nodiscard]] ThreadLog totals() const;
  /// All span records; a core span recorded outside any root is parented
  /// to the client span of the same call id when one exists.
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Per sampled decision: round trip minus the policy's share of it, in
  /// ns — the time the call spent outside `core`.
  [[nodiscard]] std::vector<double> rpc_self_ns() const;

  /// Tab-separated: name, start_ns, end_ns, span_id, parent_id, call_id,
  /// batch.  Returns the number of spans written.
  std::size_t write_tsv(std::ostream& out) const;

 private:
  const std::uint64_t uid_;
  std::atomic<std::uint64_t> root_{0};
  std::atomic<std::size_t> sample_cap_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  ///< guarded by mutex_
};

/// Forwards every RoutingPolicy call to `inner`, recording it in `ledger`.
class TracedPolicy final : public via::RoutingPolicy {
 public:
  TracedPolicy(via::RoutingPolicy& inner, Ledger& ledger) : inner_(&inner), ledger_(&ledger) {}

  [[nodiscard]] via::OptionId choose(const via::CallContext& call) override;
  void choose_batch(std::span<const via::CallContext> calls,
                    std::span<via::OptionId> out) override;
  void observe(const via::Observation& obs) override;
  void refresh(via::TimeSec now) override;
  void prepare_refresh(via::TimeSec now) override;
  void commit_refresh(via::TimeSec now) override;
  [[nodiscard]] std::vector<via::OptionId> choose_candidates(
      const via::CallContext& call) override {
    return inner_->choose_candidates(call);
  }
  [[nodiscard]] std::vector<via::ProbeRequest> plan_probes(std::size_t max_probes) override {
    return inner_->plan_probes(max_probes);
  }
  void attach_telemetry(via::obs::Telemetry* telemetry) override {
    inner_->attach_telemetry(telemetry);
  }
  [[nodiscard]] bool concurrent_safe() const noexcept override {
    return inner_->concurrent_safe();
  }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }

 private:
  via::RoutingPolicy* inner_;
  Ledger* ledger_;
};

}  // namespace ctlbench
