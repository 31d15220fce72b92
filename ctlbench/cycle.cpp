#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <thread>

#include "loadgen.h"
#include "phases.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "util/rng.h"

namespace ctlbench {

namespace {

constexpr std::int64_t kReportLagNs = 2'000'000;
constexpr std::int64_t kSpinNs = 200'000;
constexpr std::int64_t kIdBase = 2'000'000'000'000;
constexpr std::int64_t kPassIds = 1'000'000'000;

/// Call `i` of the open loop: trace arrival `arrival` replayed in pass
/// `pass`, its sim time shifted past every earlier pass.
struct CallPlan {
  const via::CallArrival* arrival = nullptr;
  std::int64_t id = 0;
  via::TimeSec time = 0;
  std::int64_t due_ns = 0;
};

class Schedule {
 public:
  Schedule(std::span<const via::CallArrival> arrivals, std::uint64_t seed, std::int64_t start,
           double rate)
      : start_(start), rate_(rate) {
    const auto first = std::partition_point(
        arrivals.begin(), arrivals.end(), [](const via::CallArrival& a) {
          return a.time < kWarmDays * via::kSecondsPerDay;
        });
    walk_ = arrivals.subspan(static_cast<std::size_t>(first - arrivals.begin()));
    span_ = (via::day_of(arrivals.back().time) + 1) * via::kSecondsPerDay;
    offset_ = static_cast<std::int64_t>(via::hash_mix(seed, 0xc1c1e) % walk_.size());
  }
  [[nodiscard]] CallPlan at(std::int64_t i) const {
    const std::int64_t n = static_cast<std::int64_t>(walk_.size());
    const std::int64_t pass = (i + offset_) / n;
    const via::CallArrival& a = walk_[static_cast<std::size_t>((i + offset_) % n)];
    return CallPlan{&a, kIdBase + pass * kPassIds + a.id, a.time + pass * span_, due(i)};
  }
  [[nodiscard]] std::int64_t due(std::int64_t i) const {
    return start_ + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate_);
  }

 private:
  std::span<const via::CallArrival> walk_;
  via::TimeSec span_ = 0;
  std::int64_t offset_ = 0;
  std::int64_t start_;
  double rate_;
};

struct Outstanding {
  bool report = false;
  bool during_refresh = false;  ///< a Refresh RPC was in flight when it was sent
  std::int64_t index = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
};

struct ReportDue {
  std::int64_t index = 0;
  std::int64_t due_ns = 0;
  via::OptionId option = 0;
};

/// Sends the decision and report of calls [first, end) of `schedule` on one
/// connection and reads the replies into `res`'s decision, report and
/// latency fields (the refresh thread owns the refresh fields).  Latencies
/// go in the window their due time falls in, counted from `origin`.
void loop_thread(via::TcpConnection& sock, via::GroundTruth& gt, const Schedule& schedule,
                 std::int64_t first, std::int64_t end, std::int64_t origin,
                 const std::atomic<bool>& refreshing, Ledger* ledger, CycleResult& res) {
  // Wake at each due time, not up to the default 50 us timer slack after
  // it: the open loop's latencies are timed from the due time.
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  ThreadLog* log = ledger != nullptr ? &ledger->local() : nullptr;
  via::ReadBuffer in;
  via::WriteBuffer out;
  via::Frame frame;
  std::deque<Outstanding> outstanding;
  std::deque<ReportDue> reports;
  std::int64_t next = first;
  std::int64_t last_progress = mono_ns();
  for (;;) {
    std::int64_t now = mono_ns();
    while (next < end && schedule.due(next) <= now) {
      const CallPlan plan = schedule.at(next);
      via::DecisionRequest req;
      req.call_id = plan.id;
      req.time = plan.time;
      req.src_as = plan.arrival->src_as;
      req.dst_as = plan.arrival->dst_as;
      const auto cand = gt.candidate_options(req.src_as, req.dst_as);
      req.options.assign(cand.begin(), cand.end());
      via::WireWriter w;
      req.encode(w);
      out.frame(static_cast<std::uint8_t>(via::MsgType::DecisionRequest), w.bytes());
      res.late_ns.add(static_cast<std::uint64_t>(now - plan.due_ns));
      outstanding.push_back(
          Outstanding{false, refreshing.load(std::memory_order_relaxed), next, plan.due_ns, now});
      ++res.decisions.sent;
      ++next;
    }
    while (!reports.empty() && reports.front().due_ns <= now) {
      const ReportDue r = reports.front();
      reports.pop_front();
      const CallPlan plan = schedule.at(r.index);
      const via::CallArrival& a = *plan.arrival;
      via::ReportMsg msg;
      msg.obs.id = plan.id;
      msg.obs.time = plan.time;
      msg.obs.src_as = a.src_as;
      msg.obs.dst_as = a.dst_as;
      msg.obs.option = r.option;
      msg.obs.ingress = gt.transit_ingress(a.src_as, r.option);
      // Performance is drawn at the trace's own (id, time), whose ground
      // truth caches are warm; only the reported id and time are shifted.
      msg.obs.perf = gt.sample_call(a.id, a.src_as, a.dst_as, r.option, a.time);
      via::WireWriter w;
      msg.encode(w);
      out.frame(static_cast<std::uint8_t>(via::MsgType::Report), w.bytes());
      res.late_ns.add(static_cast<std::uint64_t>(now - r.due_ns));
      outstanding.push_back(Outstanding{true, false, r.index, r.due_ns, now});
      ++res.reports.sent;
    }
    send_queued(sock, out);
    if (next >= end && reports.empty() && outstanding.empty()) break;
    now = mono_ns();
    if (!outstanding.empty() && now - last_progress > 1'000'000'000) break;

    std::int64_t wake = now + 50'000'000;
    if (next < end) wake = std::min(wake, schedule.due(next));
    if (!reports.empty()) wake = std::min(wake, reports.front().due_ns);
    // Poll without sleeping through the last kSpinNs before a due time: a
    // thread that sleeps wakes tens of microseconds late on a shared host,
    // by a different amount from run to run, and the open loop would count
    // that as the server's latency.
    const std::int64_t wait = std::max<std::int64_t>(wake - now - kSpinNs, 0);
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000), static_cast<long>(wait % 1'000'000'000)};
    pollfd pfd{sock.fd(), POLLIN, 0};
    if (::ppoll(&pfd, 1, &ts, nullptr) <= 0) {
      // Spinning: let a reactor worker or solve thread that is waiting for
      // this vCPU run first.
      if (wait == 0) std::this_thread::yield();
      continue;
    }
    if (!recv_into(sock.fd(), in)) break;
    now = mono_ns();
    last_progress = now;
    while (!outstanding.empty() && in.next_frame(frame)) {
      const Outstanding o = outstanding.front();
      outstanding.pop_front();
      RpcTally& tally = o.report ? res.reports : res.decisions;
      const auto expected = o.report ? via::MsgType::ReportAck : via::MsgType::DecisionResponse;
      if (frame.type != static_cast<std::uint8_t>(expected)) {
        ++tally.failed;
        if (frame.type != static_cast<std::uint8_t>(via::MsgType::Busy)) ++tally.mismatched;
        continue;
      }
      const std::int64_t latency = now - o.due_ns;
      if (latency > kFailAfterNs) ++tally.failed;
      const CallPlan plan = schedule.at(o.index);
      if (o.report) {
        res.report_ns.add(o.due_ns - origin, static_cast<std::uint64_t>(latency));
        if (log != nullptr && Ledger::sampled(plan.id)) {
          ledger->record(*log, SpanName::kRpcReport, o.sent_ns, now, plan.id);
        }
        continue;
      }
      via::WireReader r(frame.payload);
      const via::DecisionResponse resp = via::DecisionResponse::decode(r);
      const auto cand = gt.candidate_options(plan.arrival->src_as, plan.arrival->dst_as);
      if (resp.call_id != plan.id ||
          std::find(cand.begin(), cand.end(), resp.option) == cand.end()) {
        ++tally.mismatched;
        ++tally.failed;
        continue;
      }
      res.call_ns.add(o.due_ns - origin, static_cast<std::uint64_t>(latency));
      if (o.during_refresh) res.refresh_call_ns.add(static_cast<std::uint64_t>(latency));
      if (log != nullptr && Ledger::sampled(plan.id)) {
        ledger->record(*log, SpanName::kRpcDecide, o.sent_ns, now, plan.id);
      }
      reports.push_back(ReportDue{o.index, o.due_ns + kReportLagNs, resp.option});
    }
  }
  for (const Outstanding& o : outstanding) ++(o.report ? res.reports : res.decisions).failed;
  // Decisions whose report was never sent leave an unreported call.
  res.reports.failed += static_cast<std::int64_t>(reports.size());
}

}  // namespace

CyclePhase::CyclePhase(via::Experiment& exp, std::uint64_t seed)
    : exp_(&exp), seed_(seed), policy_(warm_serving_policy(exp, seed)) {}

void CyclePhase::run(double seconds, Ledger* ledger) {
  via::Experiment& exp = *exp_;
  CycleResult& out = out_;
  std::unique_ptr<TracedPolicy> traced;
  if (ledger != nullptr) traced = std::make_unique<TracedPolicy>(*policy_, *ledger);
  via::RoutingPolicy& target = traced ? static_cast<via::RoutingPolicy&>(*traced) : *policy_;

  // A segment is a whole number of windows; the walk through the trace
  // carries on from one segment to the next.
  const auto window_calls = static_cast<std::int64_t>(kOfferedRate * kWindowNs / 1e9);
  const std::int64_t segment_windows =
      std::max<std::int64_t>(1, std::llround(seconds * 1e9 / static_cast<double>(kWindowNs)));
  const std::int64_t segment_calls = segment_windows * window_calls;
  const std::int64_t first = out.next_call;
  const Schedule walk(exp.arrivals(), seed_, 0, kOfferedRate);

  // Refresh at every sim-day boundary the walk crosses, with the first call
  // of the new day.
  std::vector<std::pair<std::int64_t, via::TimeSec>> refreshes;  // (call index, now)
  int day = via::day_of(walk.at(first > 0 ? first - 1 : 0).time);
  for (std::int64_t i = first; i < first + segment_calls; ++i) {
    const int d = via::day_of(walk.at(i).time);
    if (d > day) refreshes.emplace_back(i, static_cast<via::TimeSec>(d) * via::kSecondsPerDay);
    day = d;
  }

  {
    via::ServerConfig sc;
    sc.backend = via::ServingBackend::kEpoll;
    sc.reactor_threads = reactor_workers();
    sc.drain_timeout_ms = 1000;
    via::ControllerServer server(target, 0, sc);
    server.start();

    // The decision connection is made first so the refresh connection
    // lands on the other reactor worker: a Refresh blocks the worker that
    // reads it until the refresh commits, and with the decision stream on
    // that worker the calls caught behind each refresh sit near the 1%
    // mark, flipping p99 between two modes from run to run.
    via::TcpConnection sock = via::TcpConnection::connect_local(server.port());
    via::ControllerClient client(server.port());
    const std::int64_t seg_start = mono_ns() + 20'000'000;
    const Schedule schedule(exp.arrivals(), seed_,
                            seg_start - static_cast<std::int64_t>(
                                            static_cast<double>(first) * 1e9 / kOfferedRate),
                            kOfferedRate);
    std::atomic<bool> refreshing{false};
    {
      std::jthread loop_runner(loop_thread, std::ref(sock), std::ref(exp.ground_truth()),
                               std::cref(schedule), first, first + segment_calls,
                               seg_start - out.windows * kWindowNs, std::cref(refreshing), ledger,
                               std::ref(out));
      std::jthread refresher([&] {
        ThreadLog* log = ledger != nullptr ? &ledger->local() : nullptr;
        for (const auto& [index, now] : refreshes) {
          const std::int64_t due = schedule.due(index);
          while (mono_ns() < due) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(
                std::min<std::int64_t>(due - mono_ns(), 1'000'000)));
          }
          ++out.refreshes.sent;
          const std::int64_t t0 = mono_ns();
          refreshing.store(true, std::memory_order_relaxed);
          try {
            client.refresh(now);
          } catch (const std::exception&) {
            refreshing.store(false, std::memory_order_relaxed);
            ++out.refreshes.failed;
            continue;
          }
          refreshing.store(false, std::memory_order_relaxed);
          const std::int64_t t1 = mono_ns();
          out.refresh_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
          if (log != nullptr) ledger->record(*log, SpanName::kRpcRefresh, t0, t1, -1);
        }
        client.shutdown();
      });
    }

    out.decisions_served += server.decisions_served();
    out.reports_received += server.reports_received();
    out.busy_replies += server.busy_rejections();
    out.backpressure_pauses += static_cast<std::int64_t>(server.backpressure_pauses_total());
    const via::obs::MetricsSnapshot snap = server.telemetry().registry.snapshot();
    if (const auto* stall = snap.find_histogram("rpc.server.refresh_stall_us")) {
      if (stall->count > 0) out.refresh_stall_us_p99.push_back(stall->quantile(0.99));
    }
    server.stop();
  }
  out.windows += segment_windows;
  out.next_call = first + segment_calls;
}

}  // namespace ctlbench
