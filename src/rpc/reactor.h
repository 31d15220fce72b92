// Event-driven connection reactor (DESIGN.md §6h, §6j) on epoll.
//
// A small fixed pool of event-loop workers each owns an epoll instance;
// accepted connections are pinned at accept time to the worker with the
// fewest live connections and stay pinned for their whole life, so every
// connection's reads, handler calls, and writes happen on exactly one
// thread and per-connection state needs no locking.  Worker 0 additionally
// owns the (non-blocking) listener, so pinning breaks ties away from it:
// worker 0 takes a connection only when it is strictly the least loaded.
//
// Each wakeup runs two phases over the ready set:
//   1. drain: recv into every readable connection's ReadBuffer and decode
//      complete frames, charging each to the inflight count *before* any
//      of them is served — what makes burst shedding possible in an event
//      loop — then
//   2. dispatch: hand each connection's decoded batch to the frame handler
//      (replies queue on the connection's WriteBuffer) and flush; EPOLLOUT
//      is armed only while a flush leaves bytes behind.
// The handler settles the inflight charge (settle()) as it disposes of
// frames; frames a closing connection never served are settled here.
//
// Backpressure: when a connection's queued reply bytes reach
// `write_buffer_cap` (or the worker's aggregate reaches
// `worker_write_cap`), the reactor pauses the connection — read interest is
// disarmed, and the frame handler may stop mid-batch by returning a
// partial consumed count; the remainder is redispatched once the socket
// drains below the low-water mark (half the cap).  The queue can still
// overshoot the cap by at most one reply frame, because the cap is checked
// between frames, never mid-frame.
//
// stop() drains gracefully: deregister the listener, keep serving until
// every connection closes or drain_timeout_ms passes, then force-close the
// stragglers and join the workers.
//
// The reactor records its own events in the host's telemetry, under the
// rpc.server.* names: accepts, connection errors, forced drain closes,
// backpressure pauses (counter, gauges and flight events) and the
// rpc.server.inflight gauge.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "rpc/conn_buffer.h"
#include "rpc/socket.h"

namespace via {

namespace obs {
class Counter;
class Gauge;
class FlightRecorder;
struct Telemetry;
}  // namespace obs

class Reactor;
enum class MsgType : std::uint8_t;  // rpc/messages.h

/// One reactor-owned client connection.  Frame handlers interact with it
/// only through send(), close_after_flush(), and the write-pressure
/// accessors; everything else belongs to the owning worker thread.
class ReactorConn {
 public:
  [[nodiscard]] int fd() const noexcept { return fd_.get(); }

  /// Queues one reply frame, encoding `msg` straight onto the write queue
  /// (no intermediate buffer); the worker flushes after the handler
  /// returns.  Returns the frame's wire size, header included.
  template <typename Msg>
  std::size_t send(MsgType type, const Msg& msg) {
    return out_.frame_with(static_cast<std::uint8_t>(type),
                           [&msg](WireWriter& w) { msg.encode(w); });
  }
  /// Queues one reply frame with an empty payload (acks, Busy).
  std::size_t send(MsgType type) {
    return out_.frame_with(static_cast<std::uint8_t>(type), [](WireWriter&) {});
  }

  /// Close once the pending output flushes (Shutdown, protocol errors).
  /// The worker stops reading from the connection immediately.
  void close_after_flush() noexcept { closing_ = true; }

  /// Queued, not-yet-sent reply bytes on this connection.
  [[nodiscard]] std::size_t write_pending() const noexcept { return out_.approx_bytes(); }

  /// True when the per-connection write cap is configured and reached:
  /// the handler should stop serving this connection's batch (return the
  /// frames consumed so far) and let the reactor pause it until drain.
  [[nodiscard]] bool write_capped() const noexcept {
    return write_cap_ > 0 && out_.approx_bytes() >= write_cap_;
  }

  /// Bytes until the per-connection cap; SIZE_MAX when uncapped.  Lets
  /// the handler bound a batched run so one dispatch cannot blow far past
  /// the cap.
  [[nodiscard]] std::size_t write_headroom() const noexcept {
    if (write_cap_ == 0) return static_cast<std::size_t>(-1);
    const std::size_t pending = out_.approx_bytes();
    return pending >= write_cap_ ? 0 : write_cap_ - pending;
  }

 private:
  friend class Reactor;
  explicit ReactorConn(FdHandle fd) noexcept : fd_(std::move(fd)) {}

  /// Decoded frames not yet consumed by the handler (a kept remainder
  /// under backpressure, or a batch awaiting dispatch).
  [[nodiscard]] bool has_unserved() const noexcept { return batch_pos_ < batch_len_; }
  /// Ends the batch: zero live frames.  Slots keep their payload capacity
  /// for the next round's decode, within trim_frame_slots' budget.
  void reset_batch() noexcept;

  FdHandle fd_;
  ReadBuffer in_;
  WriteBuffer out_;
  /// Frame slots, decoded into in phase 1 and dispatched in phase 2.  The
  /// slots persist from round to round so decoding reuses their payload
  /// buffers; only the first batch_len_ are live.
  std::vector<Frame> batch_;
  std::size_t batch_len_ = 0;    ///< live frames in batch_
  std::size_t batch_pos_ = 0;    ///< live frames already consumed by the handler
  std::string pending_error_;    ///< decode-time ProtocolError, reported after the batch
  std::size_t write_cap_ = 0;    ///< per-connection cap (0 = uncapped), from ReactorConfig
  std::size_t accounted_out_ = 0;  ///< bytes currently charged to the worker aggregate
  std::size_t worker_idx_ = 0;   ///< owning worker (aggregate accounting, load counter)
  bool has_pending_error_ = false;
  bool closing_ = false;         ///< close after flush
  bool eof_ = false;             ///< peer closed cleanly; close after the batch
  bool dead_ = false;            ///< closed this round; object parked in the graveyard
  bool paused_ = false;          ///< read interest withheld by backpressure
  bool agg_listed_ = false;      ///< on the worker's aggregate sweep list
  std::uint32_t interest_ = 0;   ///< epoll event mask currently registered
};

struct ReactorConfig {
  int workers = 2;
  /// stop(): grace period before stragglers are force-closed.
  int drain_timeout_ms = 5000;
  /// Per-connection queued-reply byte cap; 0 disables backpressure.  A
  /// connection at or over the cap stops being read (and served) until
  /// its socket drains below cap/2.
  std::size_t write_buffer_cap = 0;
  /// Aggregate queued-reply cap across one worker's connections; 0
  /// disables.  Guards total RSS when many connections stall at once.
  std::size_t worker_write_cap = 0;
};

/// The epoll reactor (DESIGN.md §6h): listener, worker pool, dispatch
/// with partial consumption, least-connections pinning, inflight
/// accounting, and the backpressure/stat instruments.
class Reactor {
 public:
  /// Invoked with the not-yet-consumed suffix of a connection's decoded
  /// batch; returns how many frames it consumed (replies go through
  /// conn.send()).  Returning less than frames.size() signals the reactor
  /// to stop serving this connection (its write queue hit the cap) and
  /// redispatch the remainder after drain.  A thrown ProtocolError is
  /// routed to `on_protocol_error` and the connection closes after
  /// flushing.
  using FrameHandler = std::function<std::size_t(ReactorConn&, std::span<Frame>)>;
  /// The peer violated the protocol (oversized frame at decode, or a
  /// handler throw): send the error reply through conn.send(); the reactor
  /// closes the connection after flushing it.
  using ProtocolErrorHandler = std::function<void(ReactorConn&, const ProtocolError&)>;

  /// The listener and the telemetry must outlive the reactor; start()
  /// switches the listener (and every accepted connection) to non-blocking
  /// mode.
  Reactor(TcpListener& listener, obs::Telemetry& telemetry, FrameHandler on_frames,
          ProtocolErrorHandler on_protocol_error, ReactorConfig config = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void start();
  /// Graceful drain (idempotent): stop accepting, serve until every
  /// connection closes or drain_timeout_ms passes, force-close the rest,
  /// join the workers.
  void stop();

  /// Live connections across all workers.
  [[nodiscard]] std::size_t connection_count() const noexcept {
    return conn_count_.load(std::memory_order_relaxed);
  }

  /// Queued reply bytes across every connection (backpressure gauge).
  [[nodiscard]] std::size_t queued_bytes() const noexcept;
  /// Connections currently paused by backpressure.
  [[nodiscard]] std::size_t paused_connections() const noexcept {
    return paused_conns_.load(std::memory_order_relaxed);
  }
  /// Cumulative pause transitions (rpc.server.backpressure.paused_total).
  [[nodiscard]] std::uint64_t pauses_total() const noexcept;
  /// High-water mark of any single connection's write queue (bytes).
  [[nodiscard]] std::size_t peak_conn_queued_bytes() const noexcept {
    return peak_conn_queued_.load(std::memory_order_relaxed);
  }
  /// Live connections per worker (least-connections pinning visibility).
  [[nodiscard]] std::vector<std::size_t> worker_connection_counts() const;

  /// Decoded frames not yet disposed of by the frame handler (§6h): charged
  /// when phase 1 decodes them, before any is served, so a shed check sees
  /// a whole burst.
  [[nodiscard]] std::int64_t inflight() const noexcept { return inflight_.load(); }
  /// The frame handler disposed of `n` charged frames (served, shed, or
  /// given up on a close).
  void settle(std::size_t n) noexcept;

 private:
  struct Worker {
    FdHandle epoll;
    FdHandle wake;  ///< eventfd: new pinned connections, drain/stop signals
    std::thread thread;
    std::size_t index = 0;
    /// All of the below are touched only by the worker's own thread.
    std::unordered_map<int, std::unique_ptr<ReactorConn>> conns;
    std::vector<std::unique_ptr<ReactorConn>> graveyard;  ///< cleared at end of round
    /// Connections paused by the worker-aggregate cap while fully drained
    /// (no EPOLLOUT will wake them); sweep_paused() resumes from here.
    std::vector<int> agg_paused_fds;
    bool listener_registered = false;
    /// Connections accepted by worker 0 but pinned here; guarded by mutex.
    std::mutex pending_mutex;
    std::vector<int> pending;
  };

  void worker_loop(Worker& worker);
  void accept_ready(Worker& worker);
  void adopt_pending(Worker& worker);
  void register_conn(Worker& worker, int fd);
  /// Least-connections worker pick; increments the winner's load (the
  /// connection must then be pinned there; undone when it closes).
  std::size_t pick_worker();
  void read_and_decode(Worker& worker, ReactorConn& conn);
  /// Decodes every complete frame buffered in conn.in_ into conn.batch_
  /// and charges them as inflight.  A ProtocolError flags the connection
  /// closing with the error pending.
  void decode_frames(ReactorConn& conn);
  /// Drives on_frames_ over the connection's batch remainder, honoring
  /// partial consumption (a handler that stops early at the write cap
  /// leaves the remainder kept), then reports pending protocol errors and
  /// turns EOF into closing.  Does not touch sockets.  Returns false when
  /// the handler threw a non-protocol exception: fail the connection.
  bool serve_batch(ReactorConn& conn);
  void dispatch(Worker& worker, ReactorConn& conn);
  /// Flushes pending output, arms/disarms EPOLLOUT, applies backpressure
  /// pause/resume, and closes the connection when a requested close has
  /// fully flushed.
  void finish_io(Worker& worker, ReactorConn& conn);
  /// Re-charges the worker aggregate with the connection's current write
  /// queue depth and tracks the per-connection peak.
  void sync_queued(ReactorConn& conn);
  /// True when the connection (or its worker's aggregate) is at/over cap.
  [[nodiscard]] bool over_high_water(const ReactorConn& conn) const noexcept;
  /// True when both the connection and its worker are back under the
  /// low-water mark (half the respective caps).
  [[nodiscard]] bool under_low_water(const ReactorConn& conn) const noexcept;
  /// A pause/resume edge: updates the paused count, the backpressure
  /// instruments and the flight recorder.  No-op when already in `paused`.
  void set_paused(ReactorConn& conn, bool paused);
  /// Resumes one paused connection when it is back under low water,
  /// redispatching its kept batch remainder (which may re-pause it).
  void maybe_resume(Worker& worker, ReactorConn& conn);
  /// Resumes paused connections on `worker` that are back under low water
  /// (aggregate-cap recovery); redispatches their kept batch remainders.
  void sweep_paused(Worker& worker);
  /// True when the sweep list is non-empty and the worker aggregate is
  /// under its low-water mark, i.e. sweep_paused() would resume something.
  [[nodiscard]] bool sweep_ready(const Worker& worker) const noexcept;
  /// Parks a paused, fully drained connection on the aggregate sweep list
  /// (deduplicated): with no bytes in flight there is no EPOLLOUT coming,
  /// so only the sweep can resume it once the aggregate drains.
  void list_for_sweep(Worker& worker, ReactorConn& conn);
  /// Deregisters and parks the connection, then settles its bookkeeping:
  /// settles its unserved frames' inflight charge, clears its pause,
  /// uncharges the aggregate, decrements the worker load and the global
  /// count, and signals stop().
  void close_conn(Worker& worker, ReactorConn& conn);
  void update_interest(Worker& worker, ReactorConn& conn, bool want_write);
  void conn_failure(Worker& worker, ReactorConn& conn);
  void wake_all();

  TcpListener* listener_;
  FrameHandler on_frames_;
  ProtocolErrorHandler on_protocol_error_;
  ReactorConfig config_;

  /// Instruments in the host's registry (rpc.server.*); flight_ is null
  /// when the host's flight recorder is disabled.
  obs::Counter* tel_accepted_;
  obs::Counter* tel_conn_errors_;
  obs::Counter* tel_forced_closes_;
  obs::Counter* tel_pauses_;
  obs::Gauge* tel_paused_;
  obs::Gauge* tel_queued_;
  obs::Gauge* tel_inflight_;
  obs::FlightRecorder* flight_;

  std::atomic<std::size_t> conn_count_{0};
  std::atomic<bool> draining_{false};
  std::atomic<bool> force_close_{false};
  std::atomic<bool> stopping_{false};
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;  ///< signaled as connections close
  bool started_ = false;

  /// Per-worker live-connection counters (least-connections pinning) and
  /// queued-reply aggregates; sized by start().
  std::vector<std::atomic<std::size_t>> worker_loads_;
  std::vector<std::atomic<std::size_t>> worker_queued_;
  std::atomic<std::size_t> paused_conns_{0};
  std::atomic<std::size_t> peak_conn_queued_{0};
  std::atomic<std::int64_t> inflight_{0};

  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace via
