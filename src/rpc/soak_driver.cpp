#include "rpc/soak_driver.h"

#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <sstream>
#include <system_error>
#include <thread>

#include "obs/export.h"
#include "rpc/conn_buffer.h"
#include "rpc/errors.h"
#include "rpc/framing.h"
#include "rpc/messages.h"
#include "rpc/socket.h"

extern char** environ;

namespace via {

namespace {

/// call_id for connection `c`, burst slot `k`: unique per connection so a
/// reply can be matched back to the request it answers.
[[nodiscard]] CallId decision_call_id(int c, int k) {
  return static_cast<CallId>(c) * 1'000'000 + k;
}

/// The encoders append a connection's whole burst of frames to `out`, so
/// each burst goes out in one send_all and lands on the server within one
/// readiness event.
void encode_decision_burst(std::vector<std::byte>& out, const SoakConfig& config, int c) {
  const auto as_count = static_cast<AsId>(std::max(2, config.as_count));
  for (int k = 0; k < config.depth; ++k) {
    DecisionRequest req;
    req.call_id = decision_call_id(c, k);
    req.time = 1000 + k;
    req.src_as = static_cast<AsId>(c) % as_count;
    req.dst_as = static_cast<AsId>(c + 1 + k) % as_count;
    if (req.dst_as == req.src_as) req.dst_as = (req.dst_as + 1) % as_count;
    req.options.assign(config.options.begin(), config.options.end());
    append_frame(out, static_cast<std::uint8_t>(MsgType::DecisionRequest),
                 [&req](WireWriter& w) { req.encode(w); });
  }
}

void encode_report_burst(std::vector<std::byte>& out, const SoakConfig& config, int c, int round) {
  const auto as_count = static_cast<AsId>(std::max(2, config.as_count));
  for (int k = 0; k < config.depth; ++k) {
    ReportMsg msg;
    // Unique per (connection, round, slot): the server's report dedup
    // window keys on (id, option, time), so every frame must count.
    msg.obs.id = (static_cast<CallId>(c) * config.rounds + round) * config.depth + k;
    msg.obs.time = 1000 + round;
    msg.obs.src_as = static_cast<AsId>(c) % as_count;
    msg.obs.dst_as = static_cast<AsId>(c + 1 + k) % as_count;
    if (msg.obs.dst_as == msg.obs.src_as) msg.obs.dst_as = (msg.obs.dst_as + 1) % as_count;
    msg.obs.option = config.options.empty()
                         ? 0
                         : config.options[static_cast<std::size_t>(k) % config.options.size()];
    msg.obs.perf.rtt_ms = 50.0 + k;
    msg.obs.perf.loss_pct = 0.5;
    msg.obs.perf.jitter_ms = 2.0;
    append_frame(out, static_cast<std::uint8_t>(MsgType::Report),
                 [&msg](WireWriter& w) { msg.encode(w); });
  }
}

/// Bytes asked of one recv: a whole reply burst fits, and it is no more
/// than a ReadBuffer keeps between reads (kRetainCapacity).
constexpr std::size_t kReplyChunk = kRetainCapacity;

/// Next reply frame on `conn`, read through `in`: one poll under the
/// receive deadline and one recv per chunk, so a chunk holding a whole
/// burst of replies costs two syscalls, not two per frame.  Returns false
/// on a clean EOF; throws on a deadline miss, an EOF mid-frame, an I/O
/// error, or a header declaring more than kMaxPayload bytes.
bool next_reply(TcpConnection& conn, ReadBuffer& in, Frame& out, int timeout_ms) {
  while (!in.next_frame(out)) {
    if (timeout_ms > 0) {
      pollfd pfd{conn.fd(), POLLIN, 0};
      int r;
      do {
        r = ::poll(&pfd, 1, timeout_ms);
      } while (r < 0 && errno == EINTR);
      if (r < 0) throw std::system_error(errno, std::generic_category(), "poll");
      if (r == 0) throw RpcError(RpcErrorKind::Timeout, "recv deadline expired");
    }
    const std::span<std::byte> tail = in.writable(kReplyChunk);
    const ssize_t n = ::recv(conn.fd(), tail.data(), tail.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "recv");
    }
    if (n == 0) {
      if (in.buffered() == 0) return false;
      throw std::runtime_error("connection closed mid-frame");
    }
    in.commit(static_cast<std::size_t>(n));
  }
  return true;
}

void append_json_number(std::string& out, std::string_view key, double v) {
  std::ostringstream os;
  os << v;
  out += "\"";
  out += key;
  out += "\":";
  out += std::move(os).str();
}

}  // namespace

std::string SoakResult::to_json() const {
  std::string out = "{\"ok\":";
  out += ok ? "true" : "false";
  out += ",\"connected\":" + std::to_string(connected);
  out += ",\"sent\":" + std::to_string(sent);
  out += ",\"received\":" + std::to_string(received);
  out += ",\"mismatched\":" + std::to_string(mismatched);
  out += ",";
  append_json_number(out, "seconds", seconds);
  out += ",";
  append_json_number(out, "rps", rps);
  out += ",\"error\":\"" + obs::json_escape(error) + "\"}";
  return out;
}

std::optional<SoakResult> SoakResult::from_json(std::string_view line) {
  const auto ok_raw = obs::json_field(line, "ok");
  const auto connected = obs::json_int<std::int64_t>(line, "connected");
  const auto sent = obs::json_int<std::int64_t>(line, "sent");
  const auto received = obs::json_int<std::int64_t>(line, "received");
  const auto mismatched = obs::json_int<std::int64_t>(line, "mismatched");
  const auto seconds = obs::json_double(line, "seconds");
  const auto rps = obs::json_double(line, "rps");
  auto error = obs::json_string(line, "error");
  if (!ok_raw || !connected || !sent || !received || !mismatched || !seconds || !rps || !error) {
    return std::nullopt;
  }
  if (*ok_raw != "true" && *ok_raw != "false") return std::nullopt;
  SoakResult r;
  r.ok = *ok_raw == "true";
  r.connected = *connected;
  r.sent = *sent;
  r.received = *received;
  r.mismatched = *mismatched;
  r.seconds = *seconds;
  r.rps = *rps;
  r.error = std::move(*error);
  return r;
}

void raise_fd_limit() noexcept {
  struct rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  if (lim.rlim_cur >= lim.rlim_max) return;
  lim.rlim_cur = lim.rlim_max;
  (void)::setrlimit(RLIMIT_NOFILE, &lim);
}

SoakResult run_soak(const SoakConfig& config) {
  raise_fd_limit();
  SoakResult result;
  const int conns = std::max(1, config.connections);
  const int threads = std::clamp(config.threads, 1, conns);
  const int rounds = std::max(1, config.rounds);
  const int depth = std::max(1, config.depth);
  SoakConfig cfg = config;
  cfg.connections = conns;
  cfg.threads = threads;
  cfg.rounds = rounds;
  cfg.depth = depth;

  std::mutex err_mutex;
  auto fail = [&](const std::string& msg) {
    const std::lock_guard lock(err_mutex);
    if (result.error.empty()) result.error = msg;
  };

  // Phase 1: connect.  The listen backlog is finite, so transient refusals
  // at high connection counts get a short retry loop instead of a verdict.
  std::vector<TcpConnection> sockets(static_cast<std::size_t>(conns));
  std::vector<std::vector<std::byte>> bursts(static_cast<std::size_t>(conns));
  std::atomic<std::int64_t> connected{0};
  {
    std::vector<std::thread> ts;
    ts.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        for (int c = t; c < conns; c += threads) {
          const auto i = static_cast<std::size_t>(c);
          for (int attempt = 0;; ++attempt) {
            try {
              sockets[i] = TcpConnection::connect_local(cfg.port);
              connected.fetch_add(1, std::memory_order_relaxed);
              break;
            } catch (const std::exception& e) {
              if (attempt >= 200) {
                fail(std::string("connect: ") + e.what());
                return;
              }
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
          }
          // Decision bursts are identical every round; encode them once,
          // outside the timed phase, so rps measures serving throughput.
          if (!cfg.reports) encode_decision_burst(bursts[i], cfg, c);
        }
      });
    }
    for (auto& th : ts) th.join();
  }
  result.connected = connected.load();
  if (!result.error.empty()) return result;

  // Phase 2: timed request/reply rounds.  Each driver thread writes a
  // depth-deep burst on every connection it owns, then drains the replies,
  // keeping `depth * connections` frames pipelined across the server.
  // Threads count locally and publish once, so the drivers share no cache
  // line per frame.
  std::atomic<std::int64_t> sent{0};
  std::atomic<std::int64_t> received{0};
  std::atomic<std::int64_t> mismatched{0};
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> ts;
    ts.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        std::int64_t my_sent = 0;
        std::int64_t my_received = 0;
        std::int64_t my_mismatched = 0;
        const auto drive = [&] {
          // One reply buffer per thread: each connection's replies are
          // drained whole before the next connection is read, so bytes
          // left over after a connection's `depth` replies are an extra
          // reply, not the start of another connection's.
          ReadBuffer in;
          Frame reply;
          for (int r = 0; r < rounds; ++r) {
            for (int c = t; c < conns; c += threads) {
              const auto i = static_cast<std::size_t>(c);
              if (cfg.reports) {
                bursts[i].clear();
                encode_report_burst(bursts[i], cfg, c, r);
              }
              sockets[i].send_all(bursts[i]);
              my_sent += depth;
            }
            for (int c = t; c < conns; c += threads) {
              auto& conn = sockets[static_cast<std::size_t>(c)];
              for (int k = 0; k < depth; ++k) {
                if (!next_reply(conn, in, reply, cfg.recv_timeout_ms)) {
                  fail("server closed connection mid-soak");
                  return;
                }
                ++my_received;
                const auto type = static_cast<MsgType>(reply.type);
                if (cfg.reports) {
                  my_mismatched += type != MsgType::ReportAck;
                } else if (type != MsgType::DecisionResponse) {
                  ++my_mismatched;
                } else {
                  WireReader rd(reply.payload);
                  my_mismatched += DecisionResponse::decode(rd).call_id != decision_call_id(c, k);
                }
              }
              if (in.buffered() > 0) {
                fail("server sent more replies than requests");
                return;
              }
            }
          }
        };
        try {
          drive();
        } catch (const std::exception& e) {
          fail(std::string("soak I/O: ") + e.what());
        }
        sent.fetch_add(my_sent, std::memory_order_relaxed);
        received.fetch_add(my_received, std::memory_order_relaxed);
        mismatched.fetch_add(my_mismatched, std::memory_order_relaxed);
      });
    }
    for (auto& th : ts) th.join();
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  result.sent = sent.load();
  result.received = received.load();
  result.mismatched = mismatched.load();
  result.rps = result.seconds > 0.0 ? static_cast<double>(result.received) / result.seconds : 0.0;
  if (result.error.empty() && result.received != result.sent) {
    result.error = "lost replies: sent " + std::to_string(result.sent) + ", received " +
                   std::to_string(result.received);
  }
  if (result.error.empty() && result.mismatched > 0) {
    result.error = std::to_string(result.mismatched) + " mismatched replies";
  }
  result.ok = result.error.empty();
  return result;
}

std::string soak_driver_path() {
  if (const char* env = std::getenv("VIA_SOAK_DRIVER"); env != nullptr && *env != '\0') {
    return ::access(env, X_OK) == 0 ? std::string(env) : std::string{};
  }
#ifdef VIA_SOAK_DRIVER_PATH
  if (::access(VIA_SOAK_DRIVER_PATH, X_OK) == 0) return VIA_SOAK_DRIVER_PATH;
#endif
  return {};
}

std::optional<SoakResult> spawn_soak(const SoakConfig& config, std::string* error) {
  auto set_error = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
  };
  const std::string path = soak_driver_path();
  if (path.empty()) {
    set_error("via_soak_driver binary not found (set VIA_SOAK_DRIVER or build apps/)");
    return std::nullopt;
  }

  std::vector<std::string> args = {
      path,
      "--port", std::to_string(config.port),
      "--conns", std::to_string(config.connections),
      "--rounds", std::to_string(config.rounds),
      "--depth", std::to_string(config.depth),
      "--threads", std::to_string(config.threads),
      "--recv-timeout-ms", std::to_string(config.recv_timeout_ms),
      "--as-count", std::to_string(config.as_count),
  };
  if (config.reports) args.emplace_back("--reports");
  if (!config.options.empty()) {
    std::string joined;
    for (const std::int32_t o : config.options) {
      if (!joined.empty()) joined += ',';
      joined += std::to_string(o);
    }
    args.emplace_back("--options");
    args.push_back(std::move(joined));
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe(fds) != 0) {
    set_error("pipe failed");
    return std::nullopt;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, path.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    set_error("posix_spawn failed: " + std::string(std::strerror(rc)));
    return std::nullopt;
  }

  std::string output;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      output.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  // The result is the last line that parses; anything else the child
  // printed (diagnostics on stderr never reach us) is ignored.
  std::optional<SoakResult> parsed;
  std::size_t pos = 0;
  while (pos <= output.size()) {
    const std::size_t eol = output.find('\n', pos);
    const std::string_view line(output.data() + pos,
                                (eol == std::string::npos ? output.size() : eol) - pos);
    if (auto r = SoakResult::from_json(line)) parsed = std::move(r);
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  if (!parsed) {
    std::string detail = "soak driver produced no result";
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      detail += " (abnormal exit, status " + std::to_string(status) + ")";
    }
    if (!output.empty()) {
      detail += ": " + output.substr(0, 200);
    }
    set_error(detail);
    return std::nullopt;
  }
  return parsed;
}

int soak_driver_main(int argc, char** argv) {
  SoakConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--port") {
        config.port = static_cast<std::uint16_t>(std::stoi(next()));
      } else if (arg == "--conns") {
        config.connections = std::stoi(next());
      } else if (arg == "--rounds") {
        config.rounds = std::stoi(next());
      } else if (arg == "--depth") {
        config.depth = std::stoi(next());
      } else if (arg == "--threads") {
        config.threads = std::stoi(next());
      } else if (arg == "--recv-timeout-ms") {
        config.recv_timeout_ms = std::stoi(next());
      } else if (arg == "--as-count") {
        config.as_count = std::stoi(next());
      } else if (arg == "--reports") {
        config.reports = true;
      } else if (arg == "--options") {
        std::istringstream ss(next());
        std::string cell;
        while (std::getline(ss, cell, ',')) {
          config.options.push_back(std::stoi(cell));
        }
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        return 2;
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }
  if (config.port == 0) {
    std::cerr << "usage: via_soak_driver --port N [--conns N] [--rounds N] [--depth N]\n"
                 "                       [--threads N] [--reports] [--options a,b,c]\n"
                 "                       [--recv-timeout-ms N] [--as-count N]\n";
    return 2;
  }
  const SoakResult result = run_soak(config);
  std::cout << result.to_json() << "\n" << std::flush;
  return 0;
}

}  // namespace via
