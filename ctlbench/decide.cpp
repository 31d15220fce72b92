#include <poll.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>

#include "loadgen.h"
#include "phases.h"
#include "rpc/server.h"
#include "util/rng.h"

namespace ctlbench {

namespace {

constexpr int kConns = 4;
constexpr int kClientThreads = 2;
constexpr int kDepth = 16;
constexpr std::size_t kTemplates = 4096;
constexpr std::int64_t kIdBase = 1'000'000'000'000;

/// One pre-encoded DecisionRequest payload over a trace pair; its call id
/// is patched per send.
struct Template {
  std::vector<std::byte> payload;
  std::vector<via::OptionId> options;
};

std::vector<Template> make_templates(via::Experiment& exp, std::uint64_t seed) {
  const auto arrivals = exp.arrivals();
  via::Rng rng(seed ^ 0xDEC1DEULL);
  std::vector<Template> out(kTemplates);
  for (std::size_t m = 0; m < kTemplates; ++m) {
    const via::CallArrival& a = arrivals[rng.uniform_index(arrivals.size())];
    via::DecisionRequest req;
    req.time = kWarmDays * via::kSecondsPerDay + 3600 + static_cast<via::TimeSec>(m);
    req.src_as = a.src_as;
    req.dst_as = a.dst_as;
    const auto cand = exp.ground_truth().candidate_options(a.src_as, a.dst_as);
    req.options.assign(cand.begin(), cand.end());
    via::WireWriter w;
    req.encode(w);
    out[m].payload.assign(w.bytes().begin(), w.bytes().end());
    out[m].options = req.options;
  }
  return out;
}

struct Slot {
  std::int64_t call_id = 0;
  std::uint32_t tmpl = 0;
  std::int64_t sent_ns = 0;
};

struct Conn {
  via::TcpConnection sock;
  int index = 0;
  std::int64_t next_k = 0;
  std::array<Slot, kDepth> ring{};
  std::size_t head = 0;
  std::size_t outstanding = 0;
  via::ReadBuffer in;
  via::WriteBuffer out;
  bool open = true;
};

struct ThreadResult {
  RpcTally tally;
  WindowedHistogram latency_ns{kWindowNs};
  std::int64_t cpu_ns = 0;
};

/// Queues `n` requests on `c` in one send.
void send_requests(Conn& c, int n, const std::vector<Template>& templates, std::uint64_t seed,
                   std::vector<std::byte>& payload, ThreadResult& res) {
  const std::int64_t now = mono_ns();
  for (int i = 0; i < n; ++i) {
    const std::int64_t k = c.next_k++;
    const auto tmpl = static_cast<std::uint32_t>(
        via::hash_mix(seed, static_cast<std::uint64_t>(c.index), static_cast<std::uint64_t>(k)) %
        kTemplates);
    const std::int64_t id = kIdBase + k * kConns + c.index;
    payload.assign(templates[tmpl].payload.begin(), templates[tmpl].payload.end());
    patch_i64(payload.data(), id);
    c.out.frame(static_cast<std::uint8_t>(via::MsgType::DecisionRequest), payload);
    c.ring[(c.head + c.outstanding) % kDepth] = Slot{id, tmpl, now};
    ++c.outstanding;
  }
  res.tally.sent += n;
  send_queued(c.sock, c.out);
}

/// Drives `conns` from `start` to `deadline`; replies are recorded in the
/// windows from `base_ns` on.
void client_loop(std::vector<Conn*> conns, const std::vector<Template>& templates,
                 std::uint64_t seed, std::int64_t start, std::int64_t deadline,
                 std::int64_t base_ns, Ledger* ledger, ThreadResult& res) {
  while (mono_ns() < start) std::this_thread::yield();
  const std::int64_t cpu0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
  ThreadLog* log = ledger != nullptr ? &ledger->local() : nullptr;
  std::vector<std::byte> payload;
  via::Frame frame;
  for (Conn* c : conns) send_requests(*c, kDepth, templates, seed, payload, res);
  std::vector<pollfd> fds(conns.size());
  std::int64_t last_progress = mono_ns();
  for (;;) {
    std::size_t pending = 0;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i] = pollfd{conns[i]->open ? conns[i]->sock.fd() : -1, POLLIN, 0};
      if (conns[i]->open) pending += conns[i]->outstanding;
    }
    const std::int64_t now0 = mono_ns();
    if (pending == 0 && now0 >= deadline) break;
    // Replies still missing a second after the last progress are failures.
    if (now0 - last_progress > 1'000'000'000) break;
    if (::poll(fds.data(), fds.size(), 50) <= 0) continue;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = *conns[i];
      if (!c.open || (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!recv_into(c.sock.fd(), c.in)) {
        c.open = false;
        continue;
      }
      const std::int64_t now = mono_ns();
      last_progress = now;
      int answered = 0;
      while (c.outstanding > 0 && c.in.next_frame(frame)) {
        const Slot slot = c.ring[c.head];
        c.head = (c.head + 1) % kDepth;
        --c.outstanding;
        ++answered;
        const std::int64_t rtt = now - slot.sent_ns;
        if (frame.type != static_cast<std::uint8_t>(via::MsgType::DecisionResponse)) {
          ++res.tally.failed;
          if (frame.type != static_cast<std::uint8_t>(via::MsgType::Busy)) ++res.tally.mismatched;
          continue;
        }
        via::WireReader reader(frame.payload);
        const via::DecisionResponse resp = via::DecisionResponse::decode(reader);
        const auto& options = templates[slot.tmpl].options;
        if (resp.call_id != slot.call_id ||
            std::find(options.begin(), options.end(), resp.option) == options.end()) {
          ++res.tally.mismatched;
          ++res.tally.failed;
          continue;
        }
        if (rtt > kFailAfterNs) ++res.tally.failed;
        if (now <= deadline) {
          res.latency_ns.add(base_ns + now - start, static_cast<std::uint64_t>(rtt));
        }
        if (log != nullptr && Ledger::sampled(slot.call_id)) {
          ledger->record(*log, SpanName::kRpcDecide, slot.sent_ns, now, slot.call_id);
        }
      }
      if (answered > 0 && now < deadline) {
        send_requests(c, answered, templates, seed, payload, res);
      }
    }
  }
  for (Conn* c : conns) res.tally.failed += static_cast<std::int64_t>(c->outstanding);
  res.cpu_ns = cpu_ns(CLOCK_THREAD_CPUTIME_ID) - cpu0;
}

}  // namespace

double decide_codec_ns(via::Experiment& exp, std::uint64_t seed) {
  const std::vector<Template> templates = make_templates(exp, seed);
  constexpr int kRounds = 200'000;
  std::int64_t checksum = 0;
  const std::int64_t t0 = mono_ns();
  for (int i = 0; i < kRounds; ++i) {
    const Template& t = templates[static_cast<std::size_t>(i) % templates.size()];
    via::WireReader rr(t.payload);
    via::DecisionRequest req = via::DecisionRequest::decode(rr);
    req.call_id = i;
    via::WireWriter rw;
    req.encode(rw);
    via::DecisionResponse resp;
    resp.call_id = req.call_id;
    resp.option = req.options.empty() ? 0 : req.options.back();
    via::WireWriter w;
    resp.encode(w);
    via::WireReader r(w.bytes());
    checksum += via::DecisionResponse::decode(r).option + static_cast<std::int64_t>(rw.bytes().size());
  }
  const std::int64_t t1 = mono_ns();
  if (checksum == -1) return 0.0;  // keeps the loop observable
  return static_cast<double>(t1 - t0) / kRounds;
}

void run_decide(via::Experiment& exp, via::ViaPolicy& policy, double seconds, std::uint64_t seed,
                Ledger* ledger, DecideResult& out) {
  const std::vector<Template> templates = make_templates(exp, seed);
  std::unique_ptr<TracedPolicy> traced;
  if (ledger != nullptr) traced = std::make_unique<TracedPolicy>(policy, *ledger);
  via::RoutingPolicy& target = traced ? static_cast<via::RoutingPolicy&>(*traced) : policy;

  const std::int64_t segment_windows =
      std::max<std::int64_t>(1, std::llround(seconds * 1e9 / static_cast<double>(kWindowNs)));
  const std::int64_t segment_ns = segment_windows * kWindowNs;
  const int segment = out.segments++;
  {
    via::ServerConfig sc;
    sc.backend = via::ServingBackend::kEpoll;
    sc.reactor_threads = reactor_workers();
    sc.drain_timeout_ms = 1000;
    via::ControllerServer server(target, 0, sc);
    server.start();
    out.backend = via::serving_backend_name(server.serving_backend());

    std::vector<Conn> conns(kConns);
    for (int c = 0; c < kConns; ++c) {
      conns[static_cast<std::size_t>(c)].sock = via::TcpConnection::connect_local(server.port());
      conns[static_cast<std::size_t>(c)].index = c;
      // Call ids stay unique across segments.
      conns[static_cast<std::size_t>(c)].next_k = static_cast<std::int64_t>(segment) << 32;
    }
    const std::int64_t start = mono_ns() + 20'000'000;
    const std::int64_t deadline = start + segment_ns;
    std::vector<ThreadResult> results(kClientThreads);
    const std::int64_t proc0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    {
      std::vector<std::jthread> threads;
      for (int t = 0; t < kClientThreads; ++t) {
        std::vector<Conn*> mine;
        for (int c = t; c < kConns; c += kClientThreads) {
          mine.push_back(&conns[static_cast<std::size_t>(c)]);
        }
        threads.emplace_back(client_loop, mine, std::cref(templates), seed, start, deadline,
                             out.windows * kWindowNs, ledger,
                             std::ref(results[static_cast<std::size_t>(t)]));
      }
    }
    out.process_cpu_ns += cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - proc0;

    for (const ThreadResult& r : results) {
      out.tally.sent += r.tally.sent;
      out.tally.failed += r.tally.failed;
      out.tally.mismatched += r.tally.mismatched;
      out.latency_ns.merge(r.latency_ns);
      out.client_cpu_ns += r.cpu_ns;
      out.replies += r.tally.sent - r.tally.failed;
    }
    conns.clear();
    out.busy_replies += server.busy_rejections();
    out.protocol_errors += server.protocol_errors();
    out.backpressure_pauses += static_cast<std::int64_t>(server.backpressure_pauses_total());
    server.stop();
  }
  out.windows += segment_windows;
}

}  // namespace ctlbench
