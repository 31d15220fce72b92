#include "rpc/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <system_error>
#include <utility>

#include "obs/telemetry.h"

namespace via {

namespace {
/// recv(2) size per readiness event (level-triggered epoll re-arms when
/// more is buffered, so one bounded read keeps connections fair).
constexpr std::size_t kReadChunk = 64 * 1024;
}  // namespace

void ReactorConn::reset_batch() noexcept {
  trim_frame_slots(batch_);
  batch_len_ = 0;
  batch_pos_ = 0;
}

Reactor::Reactor(TcpListener& listener, obs::Telemetry& telemetry, FrameHandler on_frames,
                 ProtocolErrorHandler on_protocol_error, ReactorConfig config)
    : listener_(&listener),
      on_frames_(std::move(on_frames)),
      on_protocol_error_(std::move(on_protocol_error)),
      config_(config),
      tel_accepted_(&telemetry.registry.counter("rpc.server.accepted_connections")),
      tel_conn_errors_(&telemetry.registry.counter("rpc.server.connection_errors")),
      tel_forced_closes_(&telemetry.registry.counter("rpc.server.drain_forced_closes")),
      tel_pauses_(&telemetry.registry.counter("rpc.server.backpressure.paused_total")),
      tel_paused_(&telemetry.registry.gauge("rpc.server.backpressure.paused_conns")),
      tel_queued_(&telemetry.registry.gauge("rpc.server.backpressure.bytes_queued")),
      tel_inflight_(&telemetry.registry.gauge("rpc.server.inflight")),
      flight_(telemetry.flight_if_enabled()) {}

Reactor::~Reactor() { stop(); }

std::size_t Reactor::queued_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& q : worker_queued_) total += q.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Reactor::pauses_total() const noexcept {
  return static_cast<std::uint64_t>(tel_pauses_->value());
}

void Reactor::settle(std::size_t n) noexcept {
  const auto k = static_cast<std::int64_t>(n);
  tel_inflight_->set(static_cast<double>(inflight_.fetch_sub(k) - k));
}

std::vector<std::size_t> Reactor::worker_connection_counts() const {
  std::vector<std::size_t> counts;
  counts.reserve(worker_loads_.size());
  for (const auto& load : worker_loads_) counts.push_back(load.load(std::memory_order_relaxed));
  return counts;
}

std::size_t Reactor::pick_worker() {
  // Only the acceptor thread picks, so a plain scan is race-free; the
  // loads themselves are atomics because workers decrement them on close.
  // Ties go to the highest-index worker: worker 0 also accepts, so it takes
  // a connection only when strictly least loaded, and a slow request there
  // stalls as few connections (and accepts) as possible.
  std::size_t best = worker_loads_.size() - 1;
  std::size_t best_load = worker_loads_[best].load(std::memory_order_relaxed);
  for (std::size_t i = best; i-- > 0;) {
    const std::size_t load = worker_loads_[i].load(std::memory_order_relaxed);
    if (load < best_load) {
      best = i;
      best_load = load;
    }
  }
  worker_loads_[best].fetch_add(1, std::memory_order_relaxed);
  return best;
}

void Reactor::sync_queued(ReactorConn& conn) {
  const std::size_t now = conn.out_.approx_bytes();
  if (now != conn.accounted_out_) {
    auto& agg = worker_queued_[conn.worker_idx_];
    if (now > conn.accounted_out_) {
      agg.fetch_add(now - conn.accounted_out_, std::memory_order_relaxed);
    } else {
      agg.fetch_sub(conn.accounted_out_ - now, std::memory_order_relaxed);
    }
    conn.accounted_out_ = now;
  }
  std::size_t peak = peak_conn_queued_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_conn_queued_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

bool Reactor::over_high_water(const ReactorConn& conn) const noexcept {
  if (config_.write_buffer_cap > 0 && conn.out_.approx_bytes() >= config_.write_buffer_cap) {
    return true;
  }
  return config_.worker_write_cap > 0 &&
         worker_queued_[conn.worker_idx_].load(std::memory_order_relaxed) >=
             config_.worker_write_cap;
}

bool Reactor::under_low_water(const ReactorConn& conn) const noexcept {
  if (config_.write_buffer_cap > 0 && conn.out_.approx_bytes() > config_.write_buffer_cap / 2) {
    return false;
  }
  return config_.worker_write_cap == 0 ||
         worker_queued_[conn.worker_idx_].load(std::memory_order_relaxed) <=
             config_.worker_write_cap / 2;
}

void Reactor::set_paused(ReactorConn& conn, bool paused) {
  if (conn.paused_ == paused) return;
  conn.paused_ = paused;
  if (paused) {
    paused_conns_.fetch_add(1, std::memory_order_relaxed);
    tel_pauses_->inc();
  } else {
    paused_conns_.fetch_sub(1, std::memory_order_relaxed);
  }
  tel_paused_->set(static_cast<double>(paused_connections()));
  tel_queued_->set(static_cast<double>(queued_bytes()));
  if (flight_ != nullptr) {
    flight_->record(
        paused ? obs::FlightEventKind::BackpressurePause : obs::FlightEventKind::BackpressureResume,
        paused ? "write queue over cap" : "write queue drained", conn.fd(),
        static_cast<std::int64_t>(conn.out_.approx_bytes()));
  }
}

void Reactor::decode_frames(ReactorConn& conn) {
  const std::size_t before = conn.batch_len_;
  try {
    // Decode into the next slot; a slot is added only when every existing
    // one is live, so in steady state this allocates nothing.
    for (;;) {
      if (conn.batch_len_ == conn.batch_.size()) conn.batch_.emplace_back();
      if (!conn.in_.next_frame(conn.batch_[conn.batch_len_])) break;
      ++conn.batch_len_;
    }
  } catch (const ProtocolError& e) {
    // Oversized header: serve what decoded cleanly, then report and
    // close.  closing_ also stops further reads right away.
    conn.pending_error_ = e.what();
    conn.has_pending_error_ = true;
    conn.closing_ = true;
  }
  // Decoded-but-unanswered frames count as inflight (§6h): charging them
  // here, before any dispatch, is what lets the shed check see a burst
  // that arrived within a single readiness event.
  const auto added = static_cast<std::int64_t>(conn.batch_len_ - before);
  if (added > 0) tel_inflight_->set(static_cast<double>(inflight_.fetch_add(added) + added));
}

bool Reactor::serve_batch(ReactorConn& conn) {
  while (conn.has_unserved()) {
    const std::span<Frame> rest(conn.batch_.data() + conn.batch_pos_,
                                conn.batch_len_ - conn.batch_pos_);
    std::size_t consumed = 0;
    try {
      consumed = on_frames_(conn, rest);
    } catch (const ProtocolError& e) {
      if (on_protocol_error_) on_protocol_error_(conn, e);
      conn.closing_ = true;
      // The handler's accounting disposed of the whole remainder (it will
      // never be served); nothing left for close_conn to settle.
      conn.batch_pos_ = conn.batch_len_;
      break;
    } catch (const std::exception&) {
      conn.reset_batch();
      return false;
    }
    conn.batch_pos_ += std::min(consumed, rest.size());
    if (conn.closing_) {
      // A handler that requests close has disposed of the remainder too.
      conn.batch_pos_ = conn.batch_len_;
      break;
    }
    if (consumed < rest.size()) {
      // Write queue at cap: keep the remainder for redispatch after drain.
      return true;
    }
  }
  conn.reset_batch();
  if (conn.has_pending_error_) {
    conn.has_pending_error_ = false;
    if (on_protocol_error_) on_protocol_error_(conn, ProtocolError(conn.pending_error_));
    conn.closing_ = true;
  }
  if (conn.eof_) conn.closing_ = true;
  return true;
}

void Reactor::close_conn(Worker& worker, ReactorConn& conn) {
  if (conn.dead_) return;
  const int fd = conn.fd();
  (void)::epoll_ctl(worker.epoll.get(), EPOLL_CTL_DEL, fd, nullptr);
  conn.dead_ = true;
  const auto it = worker.conns.find(fd);
  if (it != worker.conns.end() && it->second.get() == &conn) {
    // Park the object until the end of the round: the ready list may still
    // hold a pointer to it (the dead_ flag skips it).
    worker.graveyard.push_back(std::move(it->second));
    worker.conns.erase(it);
  }
  conn.fd_.reset();
  // Frames decoded but never dispatched (closed while paused) settle
  // their inflight charge.
  const std::size_t dropped = conn.batch_len_ - conn.batch_pos_;
  if (dropped > 0) settle(dropped);
  conn.reset_batch();
  if (conn.accounted_out_ > 0) {
    worker_queued_[conn.worker_idx_].fetch_sub(conn.accounted_out_, std::memory_order_relaxed);
    conn.accounted_out_ = 0;
  }
  if (conn.paused_) {
    // Closed while paused: no resume edge (the connection never resumed),
    // but the gauges must stop counting it and its queue.
    conn.paused_ = false;
    paused_conns_.fetch_sub(1, std::memory_order_relaxed);
    tel_paused_->set(static_cast<double>(paused_connections()));
    tel_queued_->set(static_cast<double>(queued_bytes()));
  }
  worker_loads_[conn.worker_idx_].fetch_sub(1, std::memory_order_relaxed);
  conn_count_.fetch_sub(1, std::memory_order_relaxed);
  {
    const std::lock_guard lock(stop_mutex_);
  }
  stop_cv_.notify_all();
}

void Reactor::start() {
  if (started_) return;
  draining_.store(false);
  force_close_.store(false);
  stopping_.store(false);
  conn_count_.store(0);

  const int lfd = listener_->fd();
  const int flags = ::fcntl(lfd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(lfd, F_SETFL, flags | O_NONBLOCK) != 0) {
    throw std::system_error(errno, std::generic_category(), "fcntl(O_NONBLOCK)");
  }

  const int nworkers = std::max(1, config_.workers);
  worker_loads_ = std::vector<std::atomic<std::size_t>>(static_cast<std::size_t>(nworkers));
  worker_queued_ = std::vector<std::atomic<std::size_t>>(static_cast<std::size_t>(nworkers));
  for (int i = 0; i < nworkers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = static_cast<std::size_t>(i);
    worker->epoll = FdHandle(::epoll_create1(EPOLL_CLOEXEC));
    if (!worker->epoll.valid()) {
      workers_.clear();
      throw std::system_error(errno, std::generic_category(), "epoll_create1");
    }
    worker->wake = FdHandle(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    if (!worker->wake.valid()) {
      workers_.clear();
      throw std::system_error(errno, std::generic_category(), "eventfd");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = worker->wake.get();
    (void)::epoll_ctl(worker->epoll.get(), EPOLL_CTL_ADD, worker->wake.get(), &ev);
    workers_.push_back(std::move(worker));
  }
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = lfd;
    (void)::epoll_ctl(workers_.front()->epoll.get(), EPOLL_CTL_ADD, lfd, &ev);
    workers_.front()->listener_registered = true;
  }
  started_ = true;
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { worker_loop(*w); });
  }
}

void Reactor::wake_all() {
  const std::uint64_t one = 1;
  for (auto& worker : workers_) {
    (void)!::write(worker->wake.get(), &one, sizeof(one));
  }
}

void Reactor::stop() {
  if (!started_) return;
  draining_.store(true);
  wake_all();
  {
    std::unique_lock lock(stop_mutex_);
    (void)stop_cv_.wait_for(lock,
                            std::chrono::milliseconds(std::max(0, config_.drain_timeout_ms)),
                            [this] { return conn_count_.load() == 0; });
  }
  if (conn_count_.load() != 0) {
    force_close_.store(true);
    wake_all();
    // Force-closing is worker-local and fast; the generous bound only
    // covers a worker wedged inside a frame handler, in which case we
    // proceed to join (the handler's return lets the worker exit).
    std::unique_lock lock(stop_mutex_);
    (void)stop_cv_.wait_for(lock, std::chrono::seconds(10),
                            [this] { return conn_count_.load() == 0; });
  }
  stopping_.store(true);
  wake_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  workers_.clear();
  started_ = false;
}

void Reactor::register_conn(Worker& worker, int fd) {
  std::unique_ptr<ReactorConn> conn(new ReactorConn(FdHandle(fd)));
  conn->worker_idx_ = worker.index;
  conn->write_cap_ = config_.write_buffer_cap;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(worker.epoll.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    // conn dtor closes the fd; undo the accept-time load charge.
    worker_loads_[worker.index].fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  conn->interest_ = EPOLLIN;
  worker.conns.emplace(fd, std::move(conn));
  conn_count_.fetch_add(1, std::memory_order_relaxed);
}

void Reactor::accept_ready(Worker& worker) {
  for (;;) {
    const int fd = ::accept4(listener_->fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Listener shut down or hard failure: stop watching it.
      if (worker.listener_registered) {
        (void)::epoll_ctl(worker.epoll.get(), EPOLL_CTL_DEL, listener_->fd(), nullptr);
        worker.listener_registered = false;
      }
      return;
    }
    if (draining_.load()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    tel_accepted_->inc();
    // Least-connections pinning: fd churn under a connect storm skews a
    // modulo pick badly; the emptiest worker is the right home.  The pick
    // charges the target's load counter, pin-for-life as before.
    Worker& target = *workers_[pick_worker()];
    if (&target == &worker) {
      register_conn(worker, fd);
    } else {
      {
        const std::lock_guard lock(target.pending_mutex);
        target.pending.push_back(fd);
      }
      const std::uint64_t tick = 1;
      (void)!::write(target.wake.get(), &tick, sizeof(tick));
    }
  }
}

void Reactor::adopt_pending(Worker& worker) {
  std::vector<int> fds;
  {
    const std::lock_guard lock(worker.pending_mutex);
    fds.swap(worker.pending);
  }
  for (const int fd : fds) {
    if (draining_.load()) {
      ::close(fd);
      worker_loads_[worker.index].fetch_sub(1, std::memory_order_relaxed);
    } else {
      register_conn(worker, fd);
    }
  }
}

void Reactor::conn_failure(Worker& worker, ReactorConn& conn) {
  tel_conn_errors_->inc();
  close_conn(worker, conn);
}

void Reactor::update_interest(Worker& worker, ReactorConn& conn, bool want_write) {
  // A closing connection is never read again — dropping EPOLLIN is what
  // keeps a still-talking peer from spinning the level-triggered loop.
  // A paused connection is not read either: that is the backpressure.
  std::uint32_t events = 0;
  if (!conn.closing_ && !conn.paused_) events |= EPOLLIN;
  if (want_write) events |= EPOLLOUT;
  if (events == conn.interest_) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = conn.fd();
  (void)::epoll_ctl(worker.epoll.get(), EPOLL_CTL_MOD, conn.fd(), &ev);
  conn.interest_ = events;
}

void Reactor::finish_io(Worker& worker, ReactorConn& conn) {
  if (conn.dead_) return;
  bool drained = false;
  try {
    drained = conn.out_.flush(conn.fd());
  } catch (const std::system_error&) {
    conn_failure(worker, conn);
    return;
  }
  sync_queued(conn);
  if (drained && conn.closing_) {
    close_conn(worker, conn);
    return;
  }
  if (!conn.closing_ && !conn.paused_ &&
      (conn.has_unserved() || over_high_water(conn))) {
    // Backpressure: stop reading until the socket drains below low water.
    // A kept batch remainder implies the per-connection cap was hit; a
    // drained connection can still pause on the worker-aggregate cap, and
    // with no EPOLLOUT to wake it, the sweep list resumes it later.
    set_paused(conn, true);
    if (drained) list_for_sweep(worker, conn);
  }
  update_interest(worker, conn, !drained);
}

void Reactor::dispatch(Worker& worker, ReactorConn& conn) {
  if (!serve_batch(conn)) {
    conn_failure(worker, conn);
    return;
  }
  finish_io(worker, conn);
}

void Reactor::list_for_sweep(Worker& worker, ReactorConn& conn) {
  if (conn.agg_listed_) return;
  conn.agg_listed_ = true;
  worker.agg_paused_fds.push_back(conn.fd());
}

void Reactor::maybe_resume(Worker& worker, ReactorConn& conn) {
  if (conn.dead_ || !conn.paused_ || conn.closing_) return;
  if (!under_low_water(conn)) {
    // Still over the aggregate low-water mark.  A connection that paused
    // with socket bytes pending can reach here on its final EPOLLOUT fully
    // drained; nothing will ever wake it again, so park it for the sweep.
    if (conn.out_.empty()) list_for_sweep(worker, conn);
    return;
  }
  set_paused(conn, false);
  if (conn.has_unserved()) {
    // Serve the batch remainder kept at pause time; this may re-pause.
    dispatch(worker, conn);
  } else {
    update_interest(worker, conn, !conn.out_.empty());
  }
}

bool Reactor::sweep_ready(const Worker& worker) const noexcept {
  return !worker.agg_paused_fds.empty() &&
         (config_.worker_write_cap == 0 ||
          worker_queued_[worker.index].load(std::memory_order_relaxed) <=
              config_.worker_write_cap / 2);
}

void Reactor::sweep_paused(Worker& worker) {
  if (!sweep_ready(worker)) return;
  // Swap the list out: maybe_resume re-lists a connection that is still
  // stuck, or that re-pauses fully drained, while we iterate.  One that
  // re-pauses with bytes pending has EPOLLOUT armed and is not re-listed:
  // the list holds only drained connections, so a ready sweep always
  // resumes something and worker_loop's polling never spins idle.
  std::vector<int> current;
  current.swap(worker.agg_paused_fds);
  for (const int fd : current) {
    const auto it = worker.conns.find(fd);
    if (it == worker.conns.end()) continue;  // closed; fd may have been reused
    ReactorConn& conn = *it->second;
    conn.agg_listed_ = false;
    if (conn.paused_) maybe_resume(worker, conn);
  }
}

void Reactor::read_and_decode(Worker& worker, ReactorConn& conn) {
  if (conn.closing_ || conn.paused_) return;
  const std::span<std::byte> dst = conn.in_.writable(kReadChunk);
  const ssize_t r = ::recv(conn.fd(), dst.data(), dst.size(), 0);
  if (r > 0) {
    conn.in_.commit(static_cast<std::size_t>(r));
    decode_frames(conn);
    return;
  }
  if (r == 0) {
    if (conn.in_.buffered() > 0) {
      // Mid-frame EOF: the peer died partway through a frame.
      conn_failure(worker, conn);
      return;
    }
    conn.eof_ = true;
    if (!conn.has_unserved()) {
      // Nothing left to serve; flush any pending replies and close.
      conn.closing_ = true;
      finish_io(worker, conn);
    }
    return;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
  conn_failure(worker, conn);
}

void Reactor::worker_loop(Worker& worker) {
  const bool acceptor = (&worker == workers_.front().get());
  std::array<epoll_event, 64> events{};
  std::vector<ReactorConn*> ready;
  for (;;) {
    // A connection the last sweep resumed, served up to its cap and parked
    // again fully drained has no event coming: poll instead of blocking, so
    // the next round's sweep serves more of its kept remainder.
    const int n = ::epoll_wait(worker.epoll.get(), events.data(),
                               static_cast<int>(events.size()), sweep_ready(worker) ? 0 : -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    bool woken = false;
    ready.clear();
    // Phase 1: drain sockets and decode frames (charged as inflight per
    // connection, before anything is served — the burst-shedding window).
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t ev = events[i].events;
      if (fd == worker.wake.get()) {
        std::uint64_t tick = 0;
        (void)!::read(fd, &tick, sizeof(tick));
        woken = true;
        continue;
      }
      if (acceptor && fd == listener_->fd()) {
        accept_ready(worker);
        continue;
      }
      const auto it = worker.conns.find(fd);
      if (it == worker.conns.end()) continue;
      ReactorConn& conn = *it->second;
      if (conn.dead_) continue;
      if ((ev & EPOLLOUT) != 0) {
        finish_io(worker, conn);
        if (conn.dead_) continue;
        maybe_resume(worker, conn);
        if (conn.dead_) continue;
      }
      if ((ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        if (conn.paused_) {
          // EPOLLIN is disarmed while paused; HUP/ERR still surface.  The
          // peer is gone, so the queued replies can never drain — fail it.
          if ((ev & (EPOLLHUP | EPOLLERR)) != 0) conn_failure(worker, conn);
          continue;
        }
        read_and_decode(worker, conn);
        if (!conn.dead_) ready.push_back(&conn);
      }
    }
    // Phase 2: dispatch each connection's decoded batch and flush replies.
    for (ReactorConn* conn : ready) {
      if (!conn->dead_) dispatch(worker, *conn);
    }
    // Aggregate-cap recovery: resume connections that paused while fully
    // drained (no EPOLLOUT will ever wake them).
    sweep_paused(worker);
    if (woken) {
      adopt_pending(worker);
      if (draining_.load() && acceptor && worker.listener_registered) {
        (void)::epoll_ctl(worker.epoll.get(), EPOLL_CTL_DEL, listener_->fd(), nullptr);
        worker.listener_registered = false;
      }
      if (force_close_.load()) {
        std::vector<ReactorConn*> all;
        all.reserve(worker.conns.size());
        for (auto& [cfd, conn] : worker.conns) all.push_back(conn.get());
        for (ReactorConn* conn : all) {
          if (conn->dead_) continue;
          tel_forced_closes_->inc();
          if (flight_ != nullptr) {
            flight_->record(obs::FlightEventKind::DrainForcedClose,
                            "drain timeout: connection forced shut", conn->fd());
          }
          close_conn(worker, *conn);
        }
      }
    }
    worker.graveyard.clear();
    if (stopping_.load()) return;
  }
}

}  // namespace via
