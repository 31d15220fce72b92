#include "rpc/messages.h"

namespace via {

void DecisionRequest::encode(WireWriter& w) const {
  w.i64(call_id);
  w.i64(time);
  w.i32(src_as);
  w.i32(dst_as);
  w.u32(static_cast<std::uint32_t>(options.size()));
  for (const OptionId o : options) w.i32(o);
  w.u64(trace_id);
}

DecisionRequest DecisionRequest::decode(WireReader& r) {
  DecisionRequest m;
  decode_into(r, m);
  return m;
}

void DecisionRequest::decode_into(WireReader& r, DecisionRequest& out) {
  out.call_id = r.i64();
  out.time = r.i64();
  out.src_as = r.i32();
  out.dst_as = r.i32();
  const std::uint32_t n = r.u32();
  // A count the frame cannot possibly hold (4 bytes per option) is a
  // malformed message, not an allocation request.
  if (n > 100'000 || n * sizeof(std::int32_t) > r.remaining()) {
    throw ProtocolError("too many options");
  }
  out.options.resize(n);
  for (OptionId& o : out.options) o = r.i32();
  // Appended in a later protocol revision; frames from older clients end
  // here and decode as untraced.
  out.trace_id = r.exhausted() ? 0 : r.u64();
}

void DecisionResponse::encode(WireWriter& w) const {
  w.i64(call_id);
  w.i32(option);
  w.u32(replica_id);
  w.u64(ring_epoch);
}

DecisionResponse DecisionResponse::decode(WireReader& r) {
  DecisionResponse m;
  m.call_id = r.i64();
  m.option = r.i32();
  // Appended by the federation revision (§6k); frames from unfederated
  // controllers end here and decode as replica 0 / epoch 0.
  if (!r.exhausted()) {
    m.replica_id = r.u32();
    m.ring_epoch = r.u64();
  }
  return m;
}

void ReportMsg::encode(WireWriter& w) const {
  w.i64(obs.id);
  w.i64(obs.time);
  w.i32(obs.src_as);
  w.i32(obs.dst_as);
  w.i32(obs.option);
  w.i32(obs.ingress);
  w.f64(obs.perf.rtt_ms);
  w.f64(obs.perf.loss_pct);
  w.f64(obs.perf.jitter_ms);
}

ReportMsg ReportMsg::decode(WireReader& r) {
  ReportMsg m;
  m.obs.id = r.i64();
  m.obs.time = r.i64();
  m.obs.src_as = r.i32();
  m.obs.dst_as = r.i32();
  m.obs.option = r.i32();
  m.obs.ingress = static_cast<RelayId>(r.i32());
  m.obs.perf.rtt_ms = r.f64();
  m.obs.perf.loss_pct = r.f64();
  m.obs.perf.jitter_ms = r.f64();
  return m;
}

void RefreshMsg::encode(WireWriter& w) const { w.i64(now); }

RefreshMsg RefreshMsg::decode(WireReader& r) {
  RefreshMsg m;
  m.now = r.i64();
  return m;
}

void StatsRequest::encode(WireWriter& w) const { w.u8(format); }

StatsRequest StatsRequest::decode(WireReader& r) {
  StatsRequest m;
  m.format = r.u8();
  return m;
}

void StatsResponse::encode(WireWriter& w) const {
  w.str(text);
  w.u32(replica_id);
}

StatsResponse StatsResponse::decode(WireReader& r) {
  StatsResponse m;
  m.text = r.str();
  m.replica_id = r.exhausted() ? 0 : r.u32();
  return m;
}

void DumpRequest::encode(WireWriter& w) const { w.u32(max_bytes); }

DumpRequest DumpRequest::decode(WireReader& r) {
  DumpRequest m;
  m.max_bytes = r.u32();
  return m;
}

void PongMsg::encode(WireWriter& w) const {
  w.u32(replica_id);
  w.u64(ring_epoch);
}

PongMsg PongMsg::decode(WireReader& r) {
  PongMsg m;
  m.replica_id = r.u32();
  m.ring_epoch = r.u64();
  return m;
}

void GossipSegmentsMsg::encode(WireWriter& w) const {
  w.u32(replica_id);
  w.u64(ring_epoch);
  w.u32(static_cast<std::uint32_t>(segments.size()));
  for (const PeerSegment& s : segments) {
    w.u64(s.key);
    for (std::size_t m = 0; m < kNumMetrics; ++m) w.f64(s.est.lin_mean[m]);
    for (std::size_t m = 0; m < kNumMetrics; ++m) w.f64(s.est.lin_sem[m]);
    w.i64(s.est.evidence);
  }
}

GossipSegmentsMsg GossipSegmentsMsg::decode(WireReader& r) {
  GossipSegmentsMsg m;
  m.replica_id = r.u32();
  m.ring_epoch = r.u64();
  const std::uint32_t n = r.u32();
  // 64 bytes per entry on the wire; a count the remaining payload cannot
  // hold is a malformed frame, not an allocation request.
  constexpr std::size_t kEntryBytes = 8 + 2 * kNumMetrics * 8 + 8;
  if (static_cast<std::size_t>(n) * kEntryBytes > r.remaining()) {
    throw ProtocolError("gossip segment count exceeds payload");
  }
  m.segments.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    PeerSegment s;
    s.key = r.u64();
    for (std::size_t k = 0; k < kNumMetrics; ++k) s.est.lin_mean[k] = r.f64();
    for (std::size_t k = 0; k < kNumMetrics; ++k) s.est.lin_sem[k] = r.f64();
    s.est.evidence = r.i64();
    m.segments.push_back(s);
  }
  return m;
}

void GossipSegmentsAckMsg::encode(WireWriter& w) const {
  w.u32(replica_id);
  w.u64(ring_epoch);
  w.u32(accepted);
}

GossipSegmentsAckMsg GossipSegmentsAckMsg::decode(WireReader& r) {
  GossipSegmentsAckMsg m;
  m.replica_id = r.u32();
  m.ring_epoch = r.u64();
  m.accepted = r.u32();
  return m;
}

void ErrorMsg::encode(WireWriter& w) const {
  w.u8(request_type);
  w.str(text);
}

ErrorMsg ErrorMsg::decode(WireReader& r) {
  ErrorMsg m;
  m.request_type = r.u8();
  m.text = r.str();
  return m;
}

}  // namespace via
