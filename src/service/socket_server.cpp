#include "service/socket_server.hpp"

#include <utility>

#include "service/protocol.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"

namespace gmm::service {

std::optional<std::string> LineSplitter::next_line() {
  const std::size_t newline = buffer_.find('\n', scanned_);
  if (newline == std::string::npos) {
    // Remember the scanned prefix so repeated polls on a growing partial
    // line stay O(new bytes), not O(buffer).
    scanned_ = buffer_.size();
    return std::nullopt;
  }
  std::string line = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  scanned_ = 0;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

SocketEndpoint parse_socket_endpoint(const std::string& spec) {
  SocketEndpoint endpoint;
  if (spec.empty()) {
    endpoint.error = "empty socket endpoint";
    return endpoint;
  }
  const std::size_t colon = spec.rfind(':');
  if (spec.find('/') != std::string::npos || colon == std::string::npos) {
    endpoint.ok = true;
    endpoint.is_unix = true;
    endpoint.path = spec;
    return endpoint;
  }
  const std::string host = spec.substr(0, colon);
  const std::string port_text = spec.substr(colon + 1);
  if (host.empty()) {
    endpoint.error = "tcp endpoint needs a host before ':'";
    return endpoint;
  }
  std::int64_t port = -1;
  for (const char c : port_text) {
    if (c < '0' || c > '9') {
      port = -1;
      break;
    }
    port = (port < 0 ? 0 : port) * 10 + (c - '0');
    if (port > 65535) break;
  }
  if (port_text.empty() || port < 0 || port > 65535) {
    endpoint.error = "tcp port must be an integer in [0, 65535]";
    return endpoint;
  }
  endpoint.ok = true;
  endpoint.host = host;
  endpoint.port = static_cast<int>(port);
  return endpoint;
}

}  // namespace gmm::service

#ifndef _WIN32

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <thread>

namespace gmm::service {

namespace {

/// A connection whose unterminated line exceeds this is dropped (a client
/// streaming garbage without newlines must not grow server memory without
/// bound).
constexpr std::size_t kMaxLineBytes = 8u << 20;
/// A connection whose unflushed response backlog exceeds this is dropped
/// as a slow consumer (its in-flight requests are cancelled).
constexpr std::size_t kMaxWriteBufferBytes = 64u << 20;

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// One connected jsonl client.
struct Connection {
  int fd = -1;
  std::uint64_t id = 0;       // stable key (fds are reused by the kernel)
  LineSplitter in;
  std::string out;            // unflushed response bytes
  std::size_t out_offset = 0; // bytes of `out` already written
  std::set<std::string> inflight;  // map ids awaiting terminal responses
  bool read_eof = false;      // half-closed: no more requests, still owed
                              // responses for `inflight`
  bool dead = false;          // marked for removal at the next sweep
  // Per-client accounting (logged at disconnect, summed into the stats
  // response's "transport" object as it accrues).
  std::int64_t requests = 0;
  std::int64_t bytes_in = 0;
  std::int64_t bytes_out = 0;
  std::int64_t shed = 0;
};

class SocketServer {
 public:
  SocketServer(const SocketServerOptions& options,
               std::vector<arch::Board> boards,
               const ServiceOptions& service_options)
      : options_(options),
        service_(std::move(boards), service_options,
                 [this](const Response& r) { on_response(r); }) {}

  int run();

 private:
  // ---- setup -------------------------------------------------------------
  int bind_and_listen(const SocketEndpoint& endpoint);
  int bind_unix(const std::string& path);
  int bind_tcp(const std::string& host, int port);

  // ---- event-loop steps --------------------------------------------------
  void accept_clients();
  void read_client(Connection& conn);
  void dispatch_buffered_lines();
  void dispatch_line(Connection& conn, const std::string& line);
  void drain_worker_responses();
  void flush(Connection& conn);
  void sweep_closed();
  void finish_shutdown();

  // ---- response delivery -------------------------------------------------
  void on_response(const Response& response);  // MappingService sink
  void deliver(Connection& conn, const Response& response);
  void route_terminal(const Response& response);
  void drop(Connection& conn, const char* why);

  SocketServerOptions options_;
  int listen_fd_ = -1;
  std::string unix_path_;  // unlinked on exit when non-empty
  int wake_read_ = -1;     // self-pipe: workers nudge the poll loop
  int wake_write_ = -1;
  std::thread::id loop_thread_;

  std::map<std::uint64_t, Connection> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t next_turn_ = 0;  // fair-dispatch rotation cursor
  /// map id -> owning connection, maintained only on the loop thread.
  std::map<std::string, std::uint64_t> route_;

  // Dispatch context for synchronous sink calls (loop thread only).
  Connection* current_ = nullptr;
  std::string current_map_id_;
  bool current_inserted_route_ = false;

  std::mutex queue_mutex_;
  std::vector<Response> queue_;  // worker responses awaiting routing

  ServiceStats::Transport transport_;
  bool shutting_down_ = false;

  MappingService service_;  // last: its workers call on_response()
};

int SocketServer::bind_unix(const std::string& path) {
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "socket path too long (max %zu): %s\n",
                 sizeof(addr.sun_path) - 1, path.c_str());
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  ::unlink(path.c_str());  // a stale socket file from a dead server
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    std::fprintf(stderr, "cannot listen on %s: %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return -1;
  }
  unix_path_ = path;
  return fd;
}

int SocketServer::bind_tcp(const std::string& host, int port) {
  addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string port_text = std::to_string(port);
  if (::getaddrinfo(host.c_str(), port_text.c_str(), &hints, &result) != 0 ||
      result == nullptr) {
    std::fprintf(stderr, "cannot resolve %s:%d\n", host.c_str(), port);
    return -1;
  }
  int fd = -1;
  for (const addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, 64) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) {
    std::fprintf(stderr, "cannot listen on %s:%d: %s\n", host.c_str(), port,
                 std::strerror(errno));
  }
  return fd;
}

int SocketServer::bind_and_listen(const SocketEndpoint& endpoint) {
  const int fd = endpoint.is_unix ? bind_unix(endpoint.path)
                                  : bind_tcp(endpoint.host, endpoint.port);
  if (fd < 0) return -1;
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return -1;
  }
  // Announce the BOUND endpoint on stdout — for "host:0" the kernel
  // picked the port, and spawners need it to connect.
  std::string bound;
  if (endpoint.is_unix) {
    bound = endpoint.path;
  } else {
    sockaddr_storage addr = {};
    socklen_t len = sizeof(addr);
    int bound_port = endpoint.port;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      if (addr.ss_family == AF_INET) {
        bound_port =
            ntohs(reinterpret_cast<const sockaddr_in*>(&addr)->sin_port);
      } else if (addr.ss_family == AF_INET6) {
        bound_port =
            ntohs(reinterpret_cast<const sockaddr_in6*>(&addr)->sin6_port);
      }
    }
    bound = endpoint.host + ":" + std::to_string(bound_port);
  }
  JsonObject event;
  event["event"] = std::string("listening");
  event["endpoint"] = bound;
  std::fprintf(stdout, "%s\n", Json(std::move(event)).dump().c_str());
  std::fflush(stdout);
  GMM_LOG(kInfo) << "socket_server: listening on " << bound;
  return fd;
}

int SocketServer::run() {
  const SocketEndpoint endpoint = parse_socket_endpoint(options_.listen);
  if (!endpoint.ok) {
    std::fprintf(stderr, "bad --listen endpoint: %s\n",
                 endpoint.error.c_str());
    return 2;
  }
  listen_fd_ = bind_and_listen(endpoint);
  if (listen_fd_ < 0) return 1;
  int wake[2] = {-1, -1};
  if (::pipe(wake) != 0 || !set_nonblocking(wake[0]) ||
      !set_nonblocking(wake[1])) {
    std::fprintf(stderr, "cannot create wakeup pipe\n");
    ::close(listen_fd_);
    return 1;
  }
  wake_read_ = wake[0];
  wake_write_ = wake[1];
  loop_thread_ = std::this_thread::get_id();

  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> pfd_conn;  // conn id per pollfd (0 = none)
  while (!shutting_down_) {
    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({wake_read_, POLLIN, 0});
    pfd_conn.push_back(0);
    if (conns_.size() < options_.max_clients) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfd_conn.push_back(0);
    }
    for (auto& [id, conn] : conns_) {
      short events = 0;
      if (!conn.read_eof) events |= POLLIN;
      if (conn.out_offset < conn.out.size()) events |= POLLOUT;
      if (events == 0) continue;  // half-closed, idle: wake via inflight
      pfds.push_back({conn.fd, events, 0});
      pfd_conn.push_back(id);
    }
    // Requests can outlast the dispatch budget of one wake (a client
    // batch bigger than kMaxLinesPerWake): when complete lines are still
    // buffered, poll must not block — only gather new events and go
    // straight back to dispatching.
    int timeout = -1;
    for (const auto& [id, conn] : conns_) {
      if (!conn.dead && conn.in.has_line()) {
        timeout = 0;
        break;
      }
    }
    if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout) < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "poll failed: %s\n", std::strerror(errno));
      break;
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const pollfd& pfd = pfds[i];
      if (pfd.revents == 0) continue;
      if (pfd.fd == wake_read_) {
        char sink[256];
        while (::read(wake_read_, sink, sizeof(sink)) > 0) {
        }
        continue;
      }
      if (pfd.fd == listen_fd_) {
        accept_clients();
        continue;
      }
      const auto it = conns_.find(pfd_conn[i]);
      if (it == conns_.end()) continue;
      Connection& conn = it->second;
      if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (pfd.revents & POLLIN) == 0) {
        // Fully torn down (reset / both directions closed) with nothing
        // left to read: cancel what it had in flight and drop it.  A
        // plain read-EOF instead lingers until `inflight` drains.
        drop(conn, "connection reset");
        continue;
      }
      if ((pfd.revents & POLLIN) != 0) read_client(conn);
      if ((pfd.revents & POLLOUT) != 0 && !conn.dead) flush(conn);
    }
    drain_worker_responses();
    dispatch_buffered_lines();
    drain_worker_responses();
    sweep_closed();
  }

  if (shutting_down_) finish_shutdown();
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  conns_.clear();
  ::close(listen_fd_);
  ::close(wake_read_);
  ::close(wake_write_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
  const ServiceStats stats = service_.stats();
  GMM_LOG(kInfo) << "socket_server: drained (connections="
                 << transport_.connections_opened
                 << ", requests=" << transport_.requests
                 << ", accepted=" << stats.accepted
                 << ", completed=" << stats.completed
                 << ", rejected=" << stats.rejected
                 << ", dropped_responses=" << transport_.responses_dropped
                 << ")";
  return 0;
}

void SocketServer::accept_clients() {
  while (conns_.size() < options_.max_clients) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // A signal between poll and accept must not orphan the pending
      // connection until the next poll round: retry now.
      if (errno == EINTR) continue;
      // EAGAIN: accepted everything pending.  Other errors (e.g. a
      // client that disconnected between poll and accept) are per-client
      // and must not stop the server.
      return;
    }
    if (GMM_FAULT("socket.accept", "fail")) {
      // Injected accept failure: tear the connection down before it ever
      // becomes a Connection, as if the client vanished mid-handshake.
      ::close(fd);
      continue;
    }
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    // Harmless ENOTSUP on unix sockets; a real latency win on TCP.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Connection conn;
    conn.fd = fd;
    conn.id = next_conn_id_++;
    ++transport_.connections_opened;
    GMM_LOG(kInfo) << "socket_server: client #" << conn.id << " connected";
    conns_.emplace(conn.id, std::move(conn));
  }
}

void SocketServer::read_client(Connection& conn) {
  char chunk[65536];
  while (true) {
    // Fault shims ahead of the real read: a forced EINTR exercises the
    // retry below, a forced ECONNRESET the drop path, and a short read
    // (1 byte) the partial-line reassembly in LineSplitter.
    ssize_t n;
    if (GMM_FAULT("socket.read", "eintr")) {
      n = -1;
      errno = EINTR;
    } else if (GMM_FAULT("socket.read", "econnreset")) {
      n = -1;
      errno = ECONNRESET;
    } else if (GMM_FAULT("socket.read", "short")) {
      n = ::read(conn.fd, chunk, 1);
    } else {
      n = ::read(conn.fd, chunk, sizeof(chunk));
    }
    if (n > 0) {
      conn.in.feed(chunk, static_cast<std::size_t>(n));
      conn.bytes_in += n;
      transport_.bytes_received += n;
      if (!conn.in.has_line() &&
          conn.in.pending_bytes() > kMaxLineBytes) {
        drop(conn, "unterminated line exceeds 8 MiB");
        return;
      }
      continue;
    }
    if (n == 0) {
      // Half-close: the client is done sending (the pipe mode's
      // write-EOF-then-read idiom).  Keep the connection until its
      // in-flight requests have answered and the buffer flushed.
      conn.read_eof = true;
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    drop(conn, "read failed");
    return;
  }
}

void SocketServer::dispatch_buffered_lines() {
  // Fair round-robin: each pass serves ONE buffered line per connection,
  // starting after the connection served first last time, so a client
  // that batched hundreds of requests cannot starve anyone.  The per-call
  // budget bounds time away from poll() under sustained load.
  constexpr int kMaxLinesPerWake = 256;
  int budget = kMaxLinesPerWake;
  bool any = true;
  while (any && budget > 0 && !shutting_down_) {
    any = false;
    // One rotation over all connections, starting at next_turn_.
    //
    // Cursor-safety audit (disconnect during a connection's own
    // dispatch slot): dispatch_line can mark ANY connection dead —
    // its own (write failure in a synchronous response) or a peer's
    // (shutdown broadcast) — but never erases from conns_; erasure
    // happens only in sweep_closed(), which run() calls strictly after
    // this function returns.  The id snapshot below therefore stays
    // valid for the whole rotation, the conns_.find(id) re-lookup per
    // slot skips anything that died mid-rotation instead of touching a
    // dangling iterator, and next_turn_ = id + 1 advances past the
    // served id even when that very connection drops in its own slot —
    // no id is visited twice in a rotation and none is skipped, so
    // per-client request accounting stays exact under disconnect
    // storms (pinned by SocketStress.DisconnectStormAccountingExact).
    std::vector<std::uint64_t> order;
    order.reserve(conns_.size());
    for (auto it = conns_.lower_bound(next_turn_); it != conns_.end(); ++it) {
      order.push_back(it->first);
    }
    for (auto it = conns_.begin();
         it != conns_.end() && it->first < next_turn_; ++it) {
      order.push_back(it->first);
    }
    for (const std::uint64_t id : order) {
      if (budget <= 0 || shutting_down_) break;
      const auto it = conns_.find(id);
      if (it == conns_.end() || it->second.dead) continue;
      const std::optional<std::string> line = it->second.in.next_line();
      if (!line.has_value()) continue;
      any = true;
      --budget;
      next_turn_ = id + 1;
      dispatch_line(it->second, *line);
    }
  }
}

void SocketServer::dispatch_line(Connection& conn, const std::string& line) {
  if (line.find_first_not_of(" \t\r") == std::string::npos) return;
  ++conn.requests;
  ++transport_.requests;
  const Request request = parse_request_line(line);
  if (request.method == Method::kMap &&
      options_.max_inflight_per_client > 0 &&
      conn.inflight.size() >= options_.max_inflight_per_client) {
    // Per-client quota: rejected at the transport layer, never reaching
    // the service — the shared admission queue stays available to other
    // clients while this one firehoses.
    ++conn.shed;
    ++transport_.shed;
    Response reject;
    reject.id = request.id;
    reject.method = "map";
    reject.v = request.version;
    reject.status = ResponseStatus::kRejected;
    reject.error = "rejected: client in-flight quota reached (" +
                   std::to_string(options_.max_inflight_per_client) + ")";
    reject.retryable = true;
    reject.retry_after_ms = 50;
    deliver(conn, reject);
    return;
  }
  current_ = &conn;
  current_map_id_.clear();
  current_inserted_route_ = false;
  if (request.method == Method::kMap) {
    // Optimistically route the id to this connection; a synchronous
    // rejection (duplicate id, full queue, bad knobs) takes it back in
    // on_response.  Ids are server-global: when the insert fails the id
    // belongs to another live request and the service will reject this
    // submission — routed to US, while the original keeps its route.
    current_inserted_route_ =
        route_.try_emplace(request.id, conn.id).second;
    if (current_inserted_route_) {
      conn.inflight.insert(request.id);
      current_map_id_ = request.id;
    }
  }
  if (request.method == Method::kShutdown) {
    // Stop admitting BEFORE draining (no further lines are dispatched),
    // then let the service ack through the normal sink path so the
    // requesting client sees the ack after every terminal response.
    shutting_down_ = true;
    service_.drain();
  }
  service_.handle(request);
  current_ = nullptr;
}

void SocketServer::on_response(const Response& response) {
  if (std::this_thread::get_id() == loop_thread_) {
    // Synchronous response to the request being dispatched (acks,
    // errors, admission rejections) — it belongs to the current
    // connection, not to whatever the id routes to.
    if (current_ == nullptr) return;  // defensive: no dispatch context
    if (response.method == "map" &&
        response.status == ResponseStatus::kRejected) {
      ++current_->shed;
      ++transport_.shed;
      // The optimistic route was for the admitted request this line
      // hoped to become; admission refused it, so take the route back
      // (a duplicate-id rejection never inserted one — the route
      // belongs to the original request).
      if (current_inserted_route_ && response.id == current_map_id_) {
        route_.erase(response.id);
        current_->inflight.erase(response.id);
      }
    }
    Response annotated = response;
    if (annotated.has_stats) annotated.stats.transport = transport_;
    deliver(*current_, annotated);
    return;
  }
  // Worker thread: queue for the loop and nudge poll().  A full pipe is
  // fine — one pending byte is enough to wake it.
  {
    const std::scoped_lock lock(queue_mutex_);
    queue_.push_back(response);
  }
  const char nudge = 'x';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_, &nudge, 1);
}

void SocketServer::drain_worker_responses() {
  std::vector<Response> batch;
  {
    const std::scoped_lock lock(queue_mutex_);
    batch.swap(queue_);
  }
  for (const Response& response : batch) route_terminal(response);
}

void SocketServer::route_terminal(const Response& response) {
  const auto route = route_.find(response.id);
  if (route == route_.end()) {
    // The client disconnected while its solve ran; the work is done but
    // nobody is listening.
    ++transport_.responses_dropped;
    return;
  }
  const std::uint64_t conn_id = route->second;
  route_.erase(route);
  const auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second.dead) {
    ++transport_.responses_dropped;
    return;
  }
  it->second.inflight.erase(response.id);
  deliver(it->second, response);
}

void SocketServer::deliver(Connection& conn, const Response& response) {
  if (conn.dead) {
    ++transport_.responses_dropped;
    return;
  }
  conn.out += response.to_line();
  conn.out.push_back('\n');
  if (conn.out.size() - conn.out_offset > kMaxWriteBufferBytes) {
    drop(conn, "write backlog exceeds 64 MiB");
    return;
  }
  flush(conn);
}

void SocketServer::flush(Connection& conn) {
  while (conn.out_offset < conn.out.size()) {
    // Fault shims mirroring read_client's: partial (1-byte) writes prove
    // the out_offset carry logic, EINTR the retry, ECONNRESET the drop.
    ssize_t n;
    if (GMM_FAULT("socket.write", "eintr")) {
      n = -1;
      errno = EINTR;
    } else if (GMM_FAULT("socket.write", "econnreset")) {
      n = -1;
      errno = ECONNRESET;
    } else if (GMM_FAULT("socket.write", "partial")) {
      n = ::send(conn.fd, conn.out.data() + conn.out_offset, 1, MSG_NOSIGNAL);
    } else {
      n = ::send(conn.fd, conn.out.data() + conn.out_offset,
                 conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    }
    if (n > 0) {
      conn.out_offset += static_cast<std::size_t>(n);
      conn.bytes_out += n;
      transport_.bytes_sent += n;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    drop(conn, "write failed");  // EPIPE: the client is gone for real
    return;
  }
  conn.out.clear();
  conn.out_offset = 0;
}

void SocketServer::drop(Connection& conn, const char* why) {
  if (conn.dead) return;
  conn.dead = true;
  GMM_LOG(kInfo) << "socket_server: dropping client #" << conn.id << " ("
                 << why << "; requests=" << conn.requests
                 << ", bytes_in=" << conn.bytes_in
                 << ", bytes_out=" << conn.bytes_out
                 << ", shed=" << conn.shed
                 << ", inflight=" << conn.inflight.size() << ")";
  // Nobody will read the answers: cancel the solves to free workers.
  // The cancel acks (and the eventual terminal responses) route to this
  // dead connection and are counted as dropped.
  for (const std::string& id : conn.inflight) {
    route_.erase(id);
    Request cancel;
    cancel.method = Method::kCancel;
    cancel.target = id;
    Connection* const saved = current_;
    current_ = &conn;
    service_.handle(cancel);
    current_ = saved;
  }
  conn.inflight.clear();
}

void SocketServer::sweep_closed() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& conn = it->second;
    const bool drained = conn.read_eof && conn.inflight.empty() &&
                         !conn.in.has_line() &&
                         conn.out_offset >= conn.out.size();
    if (conn.dead || drained) {
      GMM_LOG(kInfo) << "socket_server: client #" << conn.id
                     << " closed (requests=" << conn.requests
                     << ", bytes_in=" << conn.bytes_in
                     << ", bytes_out=" << conn.bytes_out
                     << ", shed=" << conn.shed << ")";
      ::close(conn.fd);
      ++transport_.connections_closed;
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void SocketServer::finish_shutdown() {
  // The service has drained (dispatch_line blocked on it), so every
  // terminal response is either delivered or queued.  Route the queue,
  // then give sockets a bounded window to take the remaining bytes.
  drain_worker_responses();
  const int kFlushRounds = 500;  // x 10 ms = 5 s cap
  for (int round = 0; round < kFlushRounds; ++round) {
    bool pending = false;
    for (auto& [id, conn] : conns_) {
      if (conn.dead) continue;
      flush(conn);
      if (conn.out_offset < conn.out.size()) pending = true;
    }
    if (!pending) break;
    ::poll(nullptr, 0, 10);
  }
}

}  // namespace

int run_socket_server(const SocketServerOptions& socket_options,
                      std::vector<arch::Board> boards,
                      const ServiceOptions& service_options) {
  SocketServer server(socket_options, std::move(boards), service_options);
  return server.run();
}

namespace {

/// A blocking connect(2) interrupted by a signal keeps completing in the
/// background — retrying connect() would yield EALREADY.  The portable
/// finish is to wait for writability and read SO_ERROR.
bool finish_interrupted_connect(int fd, std::string& error) {
  pollfd pfd = {fd, POLLOUT, 0};
  while (::poll(&pfd, 1, -1) < 0) {
    if (errno != EINTR) {
      error = std::strerror(errno);
      return false;
    }
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    error = std::strerror(errno);
    return false;
  }
  if (err != 0) {
    error = std::strerror(err);
    return false;
  }
  return true;
}

}  // namespace

int connect_socket_endpoint(const SocketEndpoint& endpoint,
                            std::string& error) {
  if (!endpoint.ok) {
    error = endpoint.error;
    return -1;
  }
  if (endpoint.is_unix) {
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (endpoint.path.size() >= sizeof(addr.sun_path)) {
      error = "socket path too long";
      return -1;
    }
    std::memcpy(addr.sun_path, endpoint.path.c_str(),
                endpoint.path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      error = std::strerror(errno);
      return -1;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const int saved = errno;
      if (saved == EINTR && finish_interrupted_connect(fd, error)) return fd;
      if (saved != EINTR) error = std::strerror(saved);
      ::close(fd);
      return -1;
    }
    return fd;
  }
  addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string port_text = std::to_string(endpoint.port);
  if (::getaddrinfo(endpoint.host.c_str(), port_text.c_str(), &hints,
                    &result) != 0 ||
      result == nullptr) {
    error = "cannot resolve host";
    return -1;
  }
  int fd = -1;
  for (const addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    bool connected = ::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0;
    if (!connected) {
      if (errno == EINTR) {
        connected = finish_interrupted_connect(fd, error);
      } else {
        error = std::strerror(errno);
      }
    }
    if (connected) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0 && error.empty()) error = "no usable address";
  return fd;
}

int run_socket_client(const std::string& spec) {
  const SocketEndpoint endpoint = parse_socket_endpoint(spec);
  std::string error;
  const int fd = connect_socket_endpoint(endpoint, error);
  if (fd < 0) {
    std::fprintf(stderr, "cannot connect to %s: %s\n", spec.c_str(),
                 error.c_str());
    return endpoint.ok ? 1 : 2;
  }
  bool stdin_open = true;
  int exit_code = 0;
  while (true) {
    pollfd pfds[2] = {{fd, POLLIN, 0}, {0, POLLIN, 0}};
    const nfds_t nfds = stdin_open ? 2 : 1;
    if (::poll(pfds, nfds, -1) < 0) {
      if (errno == EINTR) continue;
      exit_code = 1;
      break;
    }
    if ((pfds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      char buf[65536];
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;  // interrupted, not closed
      if (n <= 0) break;  // server closed: the session is over
      if (std::fwrite(buf, 1, static_cast<std::size_t>(n), stdout) !=
          static_cast<std::size_t>(n)) {
        exit_code = 1;
        break;
      }
      std::fflush(stdout);
    }
    if (stdin_open && (pfds[1].revents & (POLLIN | POLLHUP)) != 0) {
      char buf[65536];
      const ssize_t n = ::read(0, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;  // interrupted, not EOF
      if (n <= 0) {
        // Batch sent: half-close and keep reading responses.
        stdin_open = false;
        ::shutdown(fd, SHUT_WR);
        continue;
      }
      std::size_t sent = 0;
      while (sent < static_cast<std::size_t>(n)) {
        const ssize_t w =
            ::send(fd, buf + sent, static_cast<std::size_t>(n) - sent,
                   MSG_NOSIGNAL);
        if (w < 0 && errno == EINTR) continue;
        if (w <= 0) {
          std::fprintf(stderr, "connection lost while sending\n");
          ::close(fd);
          return 1;
        }
        sent += static_cast<std::size_t>(w);
      }
    }
  }
  ::close(fd);
  return exit_code;
}

}  // namespace gmm::service

#else  // _WIN32

namespace gmm::service {

int run_socket_server(const SocketServerOptions&, std::vector<arch::Board>,
                      const ServiceOptions&) {
  return 2;  // socket serving is POSIX-only, like ProcessClient
}

int connect_socket_endpoint(const SocketEndpoint&, std::string& error) {
  error = "sockets are POSIX-only";
  return -1;
}

int run_socket_client(const std::string&) { return 2; }

}  // namespace gmm::service

#endif
