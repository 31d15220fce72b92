#include "rpc/admin_http.h"

#include <sys/socket.h>

#include <chrono>
#include <cstddef>
#include <sstream>
#include <utility>

#include "obs/export.h"
#include "obs/span.h"
#include "rpc/errors.h"

namespace via {

namespace {

/// Largest admin request we will read before giving up on the client.
constexpr std::size_t kMaxRequestBytes = 8192;

/// Reads until the end of the HTTP header block ("\r\n\r\n" or "\n\n") or
/// the size cap.  Byte-at-a-time is fine here: requests are one line from
/// a scraper or a human's curl, and the reply dwarfs the request.  The
/// whole request must arrive within kRequestDeadlineMs: each read waits
/// only for what is left of it, so a client that stalls or trickles bytes
/// is dropped instead of holding the single accept loop.  Returns false
/// (no reply) on EOF before any byte or on the deadline.
bool read_request(TcpConnection& conn, std::string& request) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(AdminHttpServer::kRequestDeadlineMs);
  request.clear();
  std::byte b{};
  while (request.size() < kMaxRequestBytes) {
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
    if (left <= 0) return false;
    conn.set_recv_timeout_ms(static_cast<int>(left));
    try {
      if (!conn.recv_all({&b, 1})) return !request.empty();
    } catch (const RpcError&) {
      return false;  // the deadline passed inside the read
    }
    request.push_back(static_cast<char>(b));
    if (request.size() >= 4 && request.ends_with("\r\n\r\n")) return true;
    if (request.size() >= 2 && request.ends_with("\n\n")) return true;
  }
  return true;
}

/// "GET /path HTTP/1.1" -> "/path" (query string stripped); empty on
/// anything that is not a GET.
std::string parse_path(const std::string& request) {
  if (!request.starts_with("GET ")) return {};
  const std::size_t start = 4;
  const std::size_t end = request.find(' ', start);
  if (end == std::string::npos) return {};
  std::string path = request.substr(start, end - start);
  if (const std::size_t q = path.find('?'); q != std::string::npos) path.resize(q);
  return path;
}

void send_response(TcpConnection& conn, int status, const std::string& reason,
                   const std::string& content_type, const std::string& body) {
  std::ostringstream os;
  os << "HTTP/1.0 " << status << ' ' << reason << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  const std::string text = std::move(os).str();
  conn.send_all(std::as_bytes(std::span(text.data(), text.size())));
}

}  // namespace

AdminHttpServer::AdminHttpServer(obs::Telemetry& telemetry, std::uint16_t port)
    : telemetry_(&telemetry), listener_(port) {}

AdminHttpServer::~AdminHttpServer() { stop(); }

void AdminHttpServer::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  serve_thread_ = std::thread([this] { serve_loop(); });
}

void AdminHttpServer::stop() {
  if (!running_.exchange(false)) return;
  ::shutdown(listener_.fd(), SHUT_RDWR);
  if (serve_thread_.joinable()) serve_thread_.join();
}

void AdminHttpServer::serve_loop() {
  while (running_.load()) {
    TcpConnection conn;
    try {
      conn = listener_.accept();
    } catch (const std::exception&) {
      break;  // listener shut down
    }
    if (!running_.load()) break;
    try {
      handle(std::move(conn));
    } catch (const std::exception&) {
      // A broken admin client never takes the sidecar down.
    }
  }
}

bool AdminHttpServer::route(const std::string& path, std::string& body,
                            std::string& content_type) {
  if (path == "/metrics") {
    body = obs::render_stats(telemetry_->registry.snapshot(), obs::StatsFormat::Prometheus);
    content_type = "text/plain; version=0.0.4";
    return true;
  }
  if (path == "/healthz") {
    body = "ok\n";
    content_type = "text/plain";
    return true;
  }
  if (path == "/varz") {
    const obs::MetricsSnapshot snap = telemetry_->registry.snapshot();
    std::ostringstream os;
    os << "{\"tracing_enabled\":" << (telemetry_->tracer.enabled() ? "true" : "false")
       << ",\"spans_recorded\":" << telemetry_->tracer.buffer().recorded()
       << ",\"flight_enabled\":" << (telemetry_->flight.enabled() ? "true" : "false")
       << ",\"flight_recorded\":" << telemetry_->flight.recorded();
    if (varz_extra_) {
      const std::string extra = varz_extra_();
      if (!extra.empty()) os << ',' << extra;
    }
    os << ",\"counters\":{";
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
      if (i != 0) os << ',';
      os << '"' << obs::json_escape(snap.counters[i].name) << "\":" << snap.counters[i].value;
    }
    os << "}}";
    body = std::move(os).str();
    content_type = "application/json";
    return true;
  }
  if (path == "/trace") {
    body = obs::chrome_trace_json(telemetry_->tracer.buffer());
    content_type = "application/json";
    return true;
  }
  if (path == "/flightrecord") {
    std::ostringstream os;
    telemetry_->flight.export_jsonl(os);
    body = std::move(os).str();
    content_type = "application/x-ndjson";
    return true;
  }
  return false;
}

void AdminHttpServer::handle(TcpConnection conn) {
  std::string request;
  if (!read_request(conn, request)) return;
  const std::string path = parse_path(request);
  if (path.empty()) {
    send_response(conn, 405, "Method Not Allowed", "text/plain", "GET only\n");
    return;
  }
  std::string body;
  std::string content_type;
  if (!route(path, body, content_type)) {
    send_response(conn, 404, "Not Found", "text/plain",
                  "unknown path; try /metrics /healthz /varz /trace /flightrecord\n");
    return;
  }
  send_response(conn, 200, "OK", content_type, body);
}

}  // namespace via
