// Reusable decode scratch for the controller's decision path (DESIGN.md §6h).
//
// Each reactor worker thread keeps decoded requests (with their option
// vectors), call contexts and picks from one batch to the next, so
// steady-state decision serving allocates nothing.  The scratch belongs to
// the thread and so outlives every connection it serves; trim() bounds what
// one batch may leave behind, with the same budget as a connection's
// decoded-frame slots (conn_buffer.h).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "rpc/conn_buffer.h"
#include "rpc/messages.h"

namespace via {

struct DecideScratch {
  std::vector<DecisionRequest> reqs;
  std::vector<CallContext> ctxs;
  std::vector<OptionId> picks;

  /// At least `n` reusable request slots.
  std::span<DecisionRequest> requests(std::size_t n) {
    if (reqs.size() < n) reqs.resize(n);
    return reqs;
  }

  /// Keeps what a steady pipeline reuses and releases what a burst or an
  /// oversized request grew: at most kRetainSlots request slots whose
  /// options hold at most kRetainCapacity bytes between them, and context
  /// and pick arrays of at most kRetainSlots entries.
  void trim() noexcept {
    trim_reuse_slots(reqs, [](DecisionRequest& r) -> std::vector<OptionId>& { return r.options; });
    if (ctxs.capacity() > kRetainSlots) ctxs = std::vector<CallContext>();
    if (picks.capacity() > kRetainSlots) picks = std::vector<OptionId>();
  }

  /// Heap bytes held for reuse.
  [[nodiscard]] std::size_t retained_bytes() const noexcept {
    std::size_t total = reqs.capacity() * sizeof(DecisionRequest) +
                        ctxs.capacity() * sizeof(CallContext) +
                        picks.capacity() * sizeof(OptionId);
    for (const DecisionRequest& r : reqs) total += r.options.capacity() * sizeof(OptionId);
    return total;
  }

  /// Trims the scratch when one request or batch is done with it, decode
  /// errors included.
  class Lease {
   public:
    explicit Lease(DecideScratch& scratch) noexcept : scratch_(scratch) {}
    ~Lease() { scratch_.trim(); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

   private:
    DecideScratch& scratch_;
  };
};

}  // namespace via
