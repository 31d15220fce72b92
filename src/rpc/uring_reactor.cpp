#include "rpc/uring_reactor.h"

#include <linux/io_uring.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <utility>

namespace via {

namespace {

// The image ships linux/io_uring.h but not liburing, so the three syscalls
// are invoked directly.
int sys_io_uring_setup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, params));
}

int sys_io_uring_enter(int ring_fd, unsigned to_submit, unsigned min_complete, unsigned flags) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_enter, ring_fd, to_submit, min_complete, flags, nullptr, 0));
}

int sys_io_uring_register(int ring_fd, unsigned opcode, void* arg, unsigned nr_args) {
  return static_cast<int>(::syscall(__NR_io_uring_register, ring_fd, opcode, arg, nr_args));
}

// user_data layout: kind in bits 0..7, fd in bits 8..39, a 24-bit
// generation tag in bits 40..63.  The generation guards against a CQE
// landing after its connection died and the fd number was reused.
enum class OpKind : std::uint8_t {
  kAccept = 1,
  kRecv = 2,
  kSend = 3,
  kWake = 4,
  kCancel = 5,
};

constexpr std::uint64_t make_user_data(OpKind kind, int fd, std::uint32_t gen) {
  return static_cast<std::uint64_t>(kind) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(fd)) << 8) |
         (static_cast<std::uint64_t>(gen & 0xFFFFFFU) << 40);
}

constexpr OpKind user_data_kind(std::uint64_t ud) {
  return static_cast<OpKind>(ud & 0xFFU);
}

constexpr int user_data_fd(std::uint64_t ud) {
  return static_cast<int>((ud >> 8) & 0xFFFFFFFFU);
}

constexpr std::uint32_t user_data_gen(std::uint64_t ud) {
  return static_cast<std::uint32_t>(ud >> 40);
}

constexpr unsigned kSqEntries = 4096;
constexpr unsigned kCqEntries = 8192;
constexpr unsigned kReapBatch = 256;

}  // namespace

// ---------------------------------------------------------------------------
// Ring: raw SQ/CQ management.

void UringReactor::Ring::init(unsigned sq_entries, unsigned cq_entries) {
  io_uring_params params{};
  params.flags = IORING_SETUP_CQSIZE;
  params.cq_entries = cq_entries;
  fd = sys_io_uring_setup(sq_entries, &params);
  if (fd < 0) throw std::system_error(errno, std::generic_category(), "io_uring_setup");
  entries = params.sq_entries;

  sq_map_size = params.sq_off.array + params.sq_entries * sizeof(unsigned);
  cq_map_size = params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
  if ((params.features & IORING_FEAT_SINGLE_MMAP) != 0) {
    sq_map_size = cq_map_size = std::max(sq_map_size, cq_map_size);
  }
  sq_ptr = ::mmap(nullptr, sq_map_size, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE, fd,
                  IORING_OFF_SQ_RING);
  if (sq_ptr == MAP_FAILED) {
    sq_ptr = nullptr;
    throw std::system_error(errno, std::generic_category(), "mmap(sq_ring)");
  }
  if ((params.features & IORING_FEAT_SINGLE_MMAP) != 0) {
    cq_ptr = sq_ptr;
  } else {
    cq_ptr = ::mmap(nullptr, cq_map_size, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE, fd,
                    IORING_OFF_CQ_RING);
    if (cq_ptr == MAP_FAILED) {
      cq_ptr = nullptr;
      throw std::system_error(errno, std::generic_category(), "mmap(cq_ring)");
    }
  }
  sqe_map_size = params.sq_entries * sizeof(io_uring_sqe);
  sqe_ptr = ::mmap(nullptr, sqe_map_size, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE, fd,
                   IORING_OFF_SQES);
  if (sqe_ptr == MAP_FAILED) {
    sqe_ptr = nullptr;
    throw std::system_error(errno, std::generic_category(), "mmap(sqes)");
  }

  auto* sq_base = static_cast<std::uint8_t*>(sq_ptr);
  auto* cq_base = static_cast<std::uint8_t*>(cq_ptr);
  sq_head = reinterpret_cast<unsigned*>(sq_base + params.sq_off.head);
  sq_tail = reinterpret_cast<unsigned*>(sq_base + params.sq_off.tail);
  sq_mask = reinterpret_cast<unsigned*>(sq_base + params.sq_off.ring_mask);
  cq_head = reinterpret_cast<unsigned*>(cq_base + params.cq_off.head);
  cq_tail = reinterpret_cast<unsigned*>(cq_base + params.cq_off.tail);
  cq_mask = reinterpret_cast<unsigned*>(cq_base + params.cq_off.ring_mask);
  sqes = static_cast<io_uring_sqe*>(sqe_ptr);
  cqes = reinterpret_cast<io_uring_cqe*>(cq_base + params.cq_off.cqes);
  // Identity submission-index array: slot i of the SQ always names SQE i,
  // so publishing is just a tail bump.
  auto* sq_array = reinterpret_cast<unsigned*>(sq_base + params.sq_off.array);
  for (unsigned i = 0; i < params.sq_entries; ++i) sq_array[i] = i;
  local_tail = submitted = __atomic_load_n(sq_tail, __ATOMIC_RELAXED);
}

UringReactor::Ring::~Ring() {
  if (sqe_ptr != nullptr) ::munmap(sqe_ptr, sqe_map_size);
  if (cq_ptr != nullptr && cq_ptr != sq_ptr) ::munmap(cq_ptr, cq_map_size);
  if (sq_ptr != nullptr) ::munmap(sq_ptr, sq_map_size);
  if (fd >= 0) ::close(fd);
}

io_uring_sqe* UringReactor::Ring::get_sqe() {
  const unsigned head = __atomic_load_n(sq_head, __ATOMIC_ACQUIRE);
  if (local_tail - head >= entries) {
    // SQ full: flush what we have (non-SQPOLL enter consumes the whole
    // queue synchronously, so one submit always frees room).
    submit(0);
  }
  io_uring_sqe* sqe = &sqes[local_tail & *sq_mask];
  std::memset(sqe, 0, sizeof(*sqe));
  ++local_tail;
  return sqe;
}

void UringReactor::Ring::submit(unsigned wait_n) {
  __atomic_store_n(sq_tail, local_tail, __ATOMIC_RELEASE);
  unsigned to_submit = local_tail - submitted;
  if (wait_n > 0 && spill_pos < spill.size()) wait_n = 0;  // completions already in hand
  for (;;) {
    const unsigned flags = (wait_n > 0) ? IORING_ENTER_GETEVENTS : 0;
    if (to_submit == 0 && wait_n == 0) return;
    const int ret = sys_io_uring_enter(fd, to_submit, wait_n, flags);
    if (ret >= 0) {
      submitted += static_cast<unsigned>(ret);
      to_submit -= static_cast<unsigned>(ret);
      if (to_submit == 0) return;
      continue;  // partial submit (CQ pressure): push the rest
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EBUSY) {
      // Completion-side pressure: the kernel refuses SQEs until the CQ
      // drains, and the caller cannot reap until submit returns.  Move
      // posted CQEs into the spill buffer (reap() replays them first) so
      // the retry makes forward progress; merely waiting would return
      // immediately with the CQ still full and livelock this loop.
      const std::size_t before = spill.size();
      spill_cq();
      if (spill.size() > before) {
        wait_n = 0;  // completions in hand satisfy any wait
        continue;
      }
      // CQ empty yet still pressured: completions are in flight, not
      // posted.  Wait for one to land, then loop to spill it.
      const int r2 = sys_io_uring_enter(fd, 0, 1, IORING_ENTER_GETEVENTS);
      if (r2 < 0 && errno != EINTR && errno != EAGAIN && errno != EBUSY) {
        throw std::system_error(errno, std::generic_category(), "io_uring_enter");
      }
      continue;
    }
    throw std::system_error(errno, std::generic_category(), "io_uring_enter");
  }
}

void UringReactor::Ring::spill_cq() {
  unsigned head = *cq_head;  // only this thread advances it
  const unsigned tail = __atomic_load_n(cq_tail, __ATOMIC_ACQUIRE);
  if (head == tail) return;
  while (head != tail) {
    spill.push_back(cqes[head & *cq_mask]);
    ++head;
  }
  __atomic_store_n(cq_head, head, __ATOMIC_RELEASE);
}

unsigned UringReactor::Ring::reap(io_uring_cqe* out, unsigned max) {
  unsigned n = 0;
  // Replay CQEs spilled while a full CQ blocked submit(); they predate
  // anything still in the ring.
  while (spill_pos < spill.size() && n < max) out[n++] = spill[spill_pos++];
  if (spill_pos == spill.size() && spill_pos > 0) {
    spill.clear();
    spill_pos = 0;
  }
  unsigned head = *cq_head;  // only this thread advances it
  const unsigned tail = __atomic_load_n(cq_tail, __ATOMIC_ACQUIRE);
  const unsigned from_ring = n;
  while (head != tail && n < max) {
    out[n++] = cqes[head & *cq_mask];
    ++head;
  }
  if (n > from_ring) __atomic_store_n(cq_head, head, __ATOMIC_RELEASE);
  return n;
}

// ---------------------------------------------------------------------------
// UringReactor.

UringReactor::UringReactor(TcpListener& listener, FrameHandler on_frames,
                           ProtocolErrorHandler on_protocol_error, ReactorConfig config,
                           ReactorHooks hooks)
    : ReactorBase(listener, std::move(on_frames), std::move(on_protocol_error), config,
                  std::move(hooks)) {}

UringReactor::~UringReactor() { stop(); }

bool UringReactor::supported() noexcept {
  const char* disabled = std::getenv("VIA_NO_URING");
  if (disabled != nullptr && disabled[0] != '\0' && disabled[0] != '0') return false;
  io_uring_params params{};
  const int fd = sys_io_uring_setup(2, &params);
  if (fd < 0) return false;
  constexpr unsigned kProbeOps = 64;
  // io_uring_probe ends in a flexible array member; give it room manually.
  alignas(io_uring_probe) unsigned char raw[sizeof(io_uring_probe) +
                                            kProbeOps * sizeof(io_uring_probe_op)] = {};
  auto* probe = reinterpret_cast<io_uring_probe*>(raw);
  bool ok = sys_io_uring_register(fd, IORING_REGISTER_PROBE, probe, kProbeOps) == 0;
  if (ok) {
    const auto have = [probe](unsigned op) {
      return op < probe->ops_len && (probe->ops[op].flags & IO_URING_OP_SUPPORTED) != 0;
    };
    ok = have(IORING_OP_ACCEPT) && have(IORING_OP_RECV) && have(IORING_OP_SEND) &&
         have(IORING_OP_POLL_ADD) && have(IORING_OP_ASYNC_CANCEL);
  }
  ::close(fd);
  return ok;
}

void UringReactor::start() {
  if (started_) return;
  draining_.store(false);
  force_close_.store(false);
  stopping_.store(false);
  conn_count_.store(0);

  const int nworkers = std::max(1, config_.workers);
  worker_loads_ = std::vector<std::atomic<std::size_t>>(static_cast<std::size_t>(nworkers));
  worker_queued_ = std::vector<std::atomic<std::size_t>>(static_cast<std::size_t>(nworkers));
  try {
    for (int i = 0; i < nworkers; ++i) {
      auto worker = std::make_unique<Worker>();
      worker->index = static_cast<std::size_t>(i);
      worker->ring.init(kSqEntries, kCqEntries);
      worker->wake = FdHandle(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
      if (!worker->wake.valid()) {
        throw std::system_error(errno, std::generic_category(), "eventfd");
      }
      workers_.push_back(std::move(worker));
    }
  } catch (...) {
    // Partial construction (e.g. ring.init for worker i>0): a retried
    // start() must not stack fresh workers onto stale ones.
    workers_.clear();
    throw;
  }
  started_ = true;
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { worker_loop(*w); });
  }
}

void UringReactor::wake_all() {
  const std::uint64_t one = 1;
  for (auto& worker : workers_) {
    (void)!::write(worker->wake.get(), &one, sizeof(one));
  }
}

void UringReactor::stop() {
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

void UringReactor::arm_accept(Worker& worker) {
  if (worker.accept_stopped || draining_.load()) return;
  io_uring_sqe* sqe = worker.ring.get_sqe();
  sqe->opcode = IORING_OP_ACCEPT;
  sqe->fd = listener_->fd();
  if (worker.accept_multishot) sqe->ioprio = IORING_ACCEPT_MULTISHOT;
  sqe->accept_flags = SOCK_CLOEXEC;
  sqe->user_data = make_user_data(OpKind::kAccept, listener_->fd(), 0);
  ++worker.accept_inflight;
}

void UringReactor::arm_wake(Worker& worker) {
  // Single-shot and re-armed after every firing: the eventfd counter is
  // level-readable, so a write landing between the read and the re-arm
  // completes the fresh poll immediately — no lost wakeups.
  io_uring_sqe* sqe = worker.ring.get_sqe();
  sqe->opcode = IORING_OP_POLL_ADD;
  sqe->fd = worker.wake.get();
  sqe->poll32_events = POLLIN;
  sqe->user_data = make_user_data(OpKind::kWake, worker.wake.get(), 0);
  ++worker.wake_inflight;
}

void UringReactor::arm_recv(Worker& worker, ReactorConn& conn) {
  if (conn.recv_armed_ || conn.dead_ || conn.closing_ || conn.paused_) return;
  // No recv op is in flight, so the ReadBuffer is free to compact or grow.
  const std::span<std::byte> dst = conn.in_.writable(config_.read_chunk);
  io_uring_sqe* sqe = worker.ring.get_sqe();
  sqe->opcode = IORING_OP_RECV;
  sqe->fd = conn.fd();
  sqe->addr = reinterpret_cast<std::uint64_t>(dst.data());
  sqe->len = static_cast<std::uint32_t>(dst.size());
  sqe->user_data = make_user_data(OpKind::kRecv, conn.fd(), conn.gen_);
  conn.recv_armed_ = true;
  ++conn.inflight_ops_;
}

void UringReactor::stage_send(Worker& worker, ReactorConn& conn) {
  if (conn.send_armed_ || conn.dead_) return;
  const std::span<const std::byte> span = conn.out_.stage();
  if (span.empty()) return;
  io_uring_sqe* sqe = worker.ring.get_sqe();
  sqe->opcode = IORING_OP_SEND;
  sqe->fd = conn.fd();
  sqe->addr = reinterpret_cast<std::uint64_t>(span.data());
  sqe->len = static_cast<std::uint32_t>(span.size());
  sqe->msg_flags = MSG_NOSIGNAL;
  sqe->user_data = make_user_data(OpKind::kSend, conn.fd(), conn.gen_);
  conn.send_armed_ = true;
  ++conn.inflight_ops_;
}

void UringReactor::cancel_fd_ops(Worker& worker, int fd) {
  io_uring_sqe* sqe = worker.ring.get_sqe();
  sqe->opcode = IORING_OP_ASYNC_CANCEL;
  sqe->fd = fd;
  sqe->cancel_flags = IORING_ASYNC_CANCEL_FD | IORING_ASYNC_CANCEL_ALL;
  // The cancel op's own CQE is deliberately untracked: it targets ops by
  // fd, and every targeted op already accounts for itself.
  sqe->user_data = make_user_data(OpKind::kCancel, fd, 0);
}

void UringReactor::begin_close(Worker& worker, ReactorConn& conn) {
  if (conn.dead_) return;
  conn.dead_ = true;
  if (conn.inflight_ops_ > 0) {
    // In-flight ops hold kernel references to this connection's buffers;
    // cancel them and destroy only when the last CQE is reaped.  The fd
    // must stay open until then (cancel keys off it).
    cancel_fd_ops(worker, conn.fd());
    return;
  }
  maybe_destroy(worker, conn);
}

void UringReactor::maybe_destroy(Worker& worker, ReactorConn& conn) {
  if (!conn.dead_ || conn.inflight_ops_ > 0) return;
  const int fd = conn.fd();
  const auto it = worker.conns.find(fd);
  if (it == worker.conns.end() || it->second.get() != &conn) return;
  // Park the object until the end of the round; closing the fd here (and
  // only here) means the fd number cannot be reused while ops are live.
  worker.graveyard.push_back(std::move(it->second));
  worker.conns.erase(it);
  conn.fd_.reset();
  conn_closed(conn);
}

void UringReactor::conn_failure(Worker& worker, ReactorConn& conn) {
  if (conn.dead_) return;
  if (hooks_.on_conn_error) hooks_.on_conn_error();
  begin_close(worker, conn);
}

void UringReactor::register_conn(Worker& worker, int fd) {
  std::unique_ptr<ReactorConn> conn(new ReactorConn(FdHandle(fd)));
  conn->worker_idx_ = worker.index;
  conn->write_cap_ = config_.write_buffer_cap;
  conn->gen_ = ++worker.gen_counter;
  ReactorConn* raw = conn.get();
  worker.conns.emplace(fd, std::move(conn));
  conn_count_.fetch_add(1, std::memory_order_relaxed);
  arm_recv(worker, *raw);
}

void UringReactor::adopt_pending(Worker& worker) {
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

void UringReactor::settle(Worker& worker, ReactorConn& conn) {
  if (conn.dead_) {
    maybe_destroy(worker, conn);
    return;
  }
  sync_queued(conn);
  stage_send(worker, conn);
  if (conn.closing_) {
    if (conn.out_.empty() && !conn.send_armed_) begin_close(worker, conn);
    return;
  }
  if (!conn.paused_ && (conn.has_unserved() || over_high_water(conn))) {
    // Backpressure: withhold the recv resubmission until low water.  A
    // paused connection with nothing in flight has no CQE coming to wake
    // it; the sweep list covers it.
    mark_paused(conn);
    if (!conn.send_armed_ && conn.out_.empty()) list_for_sweep(worker, conn);
  } else if (conn.paused_) {
    if (under_low_water(conn)) {
      mark_resumed(conn);
      if (conn.has_unserved()) {
        if (serve_batch(conn) == ServeStatus::kError) {
          conn_failure(worker, conn);
          return;
        }
        settle(worker, conn);  // depth ≤ 2: either re-pauses or batch is done
        return;
      }
    } else if (!conn.send_armed_ && conn.out_.empty()) {
      // Fully drained by its final send CQE while the aggregate is still
      // high: this was the last completion for the connection, so only
      // the sweep can revive it.
      list_for_sweep(worker, conn);
    }
  }
  arm_recv(worker, conn);
}

void UringReactor::list_for_sweep(Worker& worker, ReactorConn& conn) {
  if (conn.agg_listed_) return;
  conn.agg_listed_ = true;
  worker.agg_paused_fds.push_back(conn.fd());
}

void UringReactor::sweep_paused(Worker& worker) {
  if (worker.agg_paused_fds.empty() || !aggregate_wants_sweep(worker.index)) return;
  // Swap the list out: settle can re-list a still-stuck connection (via
  // list_for_sweep) while we iterate.
  std::vector<int> current;
  current.swap(worker.agg_paused_fds);
  for (const int fd : current) {
    const auto it = worker.conns.find(fd);
    if (it == worker.conns.end()) continue;  // closed; fd may have been reused
    ReactorConn& conn = *it->second;
    conn.agg_listed_ = false;
    if (conn.dead_ || !conn.paused_) continue;
    settle(worker, conn);
    if (!conn.dead_ && conn.paused_) list_for_sweep(worker, conn);
  }
}

void UringReactor::handle_accept(Worker& worker, const io_uring_cqe& cqe) {
  if ((cqe.flags & IORING_CQE_F_MORE) == 0) {
    --worker.accept_inflight;
  }
  const auto res = cqe.res;
  if (res >= 0) {
    const int fd = res;
    if (draining_.load()) {
      ::close(fd);
    } else {
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (hooks_.on_accept) hooks_.on_accept();
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
    if ((cqe.flags & IORING_CQE_F_MORE) == 0 && worker.accept_inflight == 0) arm_accept(worker);
    return;
  }
  if (res == -EINVAL && worker.accept_multishot) {
    // Kernel predates multishot accept: fall back to one-shot re-arming.
    worker.accept_multishot = false;
    if (worker.accept_inflight == 0) arm_accept(worker);
    return;
  }
  if (res == -ECANCELED) return;  // drain/teardown canceled the op
  // Transient accept failure (EMFILE, ECONNABORTED, …): keep accepting.
  if (worker.accept_inflight == 0) arm_accept(worker);
}

void UringReactor::handle_recv(Worker& worker, ReactorConn& conn, std::int32_t res) {
  --conn.inflight_ops_;
  conn.recv_armed_ = false;
  if (conn.dead_) {
    maybe_destroy(worker, conn);
    return;
  }
  if (res > 0) {
    conn.in_.commit(static_cast<std::size_t>(res));
    (void)decode_frames(conn);
    if (serve_batch(conn) == ServeStatus::kError) {
      conn_failure(worker, conn);
      return;
    }
    settle(worker, conn);
    return;
  }
  if (res == 0) {
    if (conn.in_.buffered() > 0) {
      // Mid-frame EOF: the peer died partway through a frame.
      conn_failure(worker, conn);
      return;
    }
    conn.eof_ = true;
    conn.closing_ = true;  // a paused conn never has a recv armed, so no frame is unserved here
    settle(worker, conn);
    return;
  }
  if (res == -EAGAIN || res == -EINTR) {
    settle(worker, conn);  // re-arms the recv
    return;
  }
  if (res == -ECANCELED) return;  // close already in progress
  conn_failure(worker, conn);
}

void UringReactor::handle_send(Worker& worker, ReactorConn& conn, std::int32_t res) {
  --conn.inflight_ops_;
  conn.send_armed_ = false;
  if (res > 0) conn.out_.consume(static_cast<std::size_t>(res));
  if (conn.dead_) {
    maybe_destroy(worker, conn);
    return;
  }
  if (res < 0) {
    if (res == -EAGAIN || res == -EINTR) {
      settle(worker, conn);  // restages the same span
      return;
    }
    conn_failure(worker, conn);
    return;
  }
  settle(worker, conn);
}

void UringReactor::handle_cqe(Worker& worker, const io_uring_cqe& cqe, bool& woken) {
  const OpKind kind = user_data_kind(cqe.user_data);
  if (kind == OpKind::kWake) {
    --worker.wake_inflight;
    std::uint64_t tick = 0;
    (void)!::read(worker.wake.get(), &tick, sizeof(tick));
    woken = true;
    if (!worker.teardown) arm_wake(worker);
    return;
  }
  if (kind == OpKind::kAccept) {
    handle_accept(worker, cqe);
    return;
  }
  if (kind == OpKind::kCancel) return;
  const int fd = user_data_fd(cqe.user_data);
  const auto it = worker.conns.find(fd);
  if (it == worker.conns.end()) return;  // stale completion for a destroyed conn
  ReactorConn& conn = *it->second;
  if ((conn.gen_ & 0xFFFFFFU) != user_data_gen(cqe.user_data)) return;  // fd reused
  if (kind == OpKind::kRecv) {
    handle_recv(worker, conn, cqe.res);
  } else if (kind == OpKind::kSend) {
    handle_send(worker, conn, cqe.res);
  }
}

void UringReactor::worker_loop(Worker& worker) {
  // A throw below is a catastrophic ring failure (io_uring_enter/mmap level);
  // returning lets stop() time out, force-close, and join cleanly.
  try {
    run_worker(worker);
  } catch (const std::exception&) {
  }
}

void UringReactor::run_worker(Worker& worker) {
  const bool acceptor = (&worker == workers_.front().get());
  arm_wake(worker);
  if (acceptor) arm_accept(worker);
  std::array<io_uring_cqe, kReapBatch> cqes;
  for (;;) {
    worker.ring.submit(worker.teardown ? 0 : 1);
    bool woken = false;
    for (;;) {
      const unsigned n = worker.ring.reap(cqes.data(), static_cast<unsigned>(cqes.size()));
      if (n == 0) break;
      for (unsigned i = 0; i < n; ++i) handle_cqe(worker, cqes[i], woken);
    }
    if (woken) {
      adopt_pending(worker);
      if (draining_.load() && acceptor && !worker.accept_stopped) {
        worker.accept_stopped = true;
        if (worker.accept_inflight > 0) cancel_fd_ops(worker, listener_->fd());
      }
      if (force_close_.load()) {
        std::vector<ReactorConn*> all;
        all.reserve(worker.conns.size());
        for (auto& [cfd, conn] : worker.conns) all.push_back(conn.get());
        for (ReactorConn* conn : all) {
          if (conn->dead_) continue;
          if (hooks_.on_forced_close) hooks_.on_forced_close(conn->fd());
          begin_close(worker, *conn);
        }
      }
    }
    sweep_paused(worker);
    if (stopping_.load() && !worker.teardown) {
      worker.teardown = true;
      worker.accept_stopped = true;
      std::vector<ReactorConn*> all;
      all.reserve(worker.conns.size());
      for (auto& [cfd, conn] : worker.conns) all.push_back(conn.get());
      for (ReactorConn* conn : all) {
        if (!conn->dead_) begin_close(worker, *conn);
      }
      if (acceptor && worker.accept_inflight > 0) cancel_fd_ops(worker, listener_->fd());
      if (worker.wake_inflight > 0) cancel_fd_ops(worker, worker.wake.get());
    }
    worker.graveyard.clear();
    if (worker.teardown && worker.conns.empty() && worker.accept_inflight <= 0 &&
        worker.wake_inflight <= 0) {
      return;
    }
    if (worker.teardown) {
      // Every outstanding op has a cancel chasing it; wait for the CQEs
      // without risking an indefinite block on a quiet ring.
      worker.ring.submit(0);
      const int r = sys_io_uring_enter(worker.ring.fd, 0, 1, IORING_ENTER_GETEVENTS);
      if (r < 0 && errno != EINTR && errno != EAGAIN && errno != EBUSY) return;
    }
  }
}

}  // namespace via
