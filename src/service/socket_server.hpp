// Multi-client socket front end for the jsonl mapping service.
//
// run_socket_server() puts a poll(2)-driven accept loop in front of the
// same MappingService the stdin/stdout pipe mode uses: Unix-domain
// (`--listen /path/sock`) or TCP (`--listen host:port`) stream sockets,
// any number of concurrent clients, one jsonl protocol session per
// connection.  Design:
//
//   * NON-BLOCKING I/O everywhere: per-connection read reassembly
//     (LineSplitter — jsonl lines arrive split at arbitrary read()
//     boundaries) and per-connection write buffers with partial-write
//     carry, so one slow or bursty client never stalls the others;
//   * FAIR DISPATCH: each loop iteration round-robins one buffered
//     request per connection (rotating start), so a client that batched
//     100 requests cannot starve the client that sent 1;
//   * RESPONSE ROUTING: map requests are answered asynchronously by
//     MappingService workers; the server routes each terminal response
//     back to its connection by request id (ids are server-global:
//     a duplicate id across connections is rejected exactly like a
//     duplicate on one connection).  Worker responses are handed to the
//     event loop through a queue + self-pipe wakeup, never written from
//     a worker thread;
//   * HALF-CLOSE LINGER: a client may send its batch and shutdown(WR);
//     the connection stays alive until every in-flight request has
//     answered, preserving the pipe mode's write-EOF-then-read idiom.
//     A fully dropped connection (POLLHUP/POLLERR or a failed write)
//     cancels its in-flight requests and drops their responses
//     (counted: transport.responses_dropped);
//   * PER-CLIENT ACCOUNTING: requests, bytes in/out, and shed
//     (admission-rejected) counts per connection, logged at disconnect
//     and folded into the `stats` response's "transport" object;
//   * SHUTDOWN: a "shutdown" request from any client stops accepting,
//     drains the service, flushes every connection, and exits 0 — the
//     same drain contract as the pipe mode.
//
// POSIX-only, like ProcessClient; on other platforms run_socket_server
// returns an error exit code.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "arch/board.hpp"
#include "service/mapping_service.hpp"

namespace gmm::service {

/// Incremental jsonl reassembly: feed() arbitrary byte chunks, pop
/// complete '\n'-terminated lines (the '\n' stripped, a trailing '\r'
/// tolerated for telnet-style clients).  Bytes after the last newline
/// stay buffered until the next feed.  Content-agnostic: framing never
/// inspects the JSON.
class LineSplitter {
 public:
  void feed(const char* data, std::size_t n) { buffer_.append(data, n); }

  /// Next complete line, or nullopt when none is buffered.
  std::optional<std::string> next_line();

  /// True when a complete line is buffered (cheap peek for fair
  /// round-robin dispatch).
  [[nodiscard]] bool has_line() const {
    return buffer_.find('\n', scanned_) != std::string::npos;
  }

  /// Bytes buffered beyond the last complete line (the partial tail).
  [[nodiscard]] std::size_t pending_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
  std::size_t scanned_ = 0;  // prefix known to hold no '\n'
};

/// A parsed `--listen` / `--connect` endpoint.  Specs containing a '/'
/// (or no ':') are Unix-domain socket paths; "host:port" is TCP
/// ("localhost:0" asks the kernel for a free port).
struct SocketEndpoint {
  bool ok = false;
  std::string error;
  bool is_unix = false;
  std::string path;  // unix: filesystem path
  std::string host;  // tcp: node name / numeric address ("" = loopback)
  int port = 0;      // tcp: 0 = kernel-assigned
};

SocketEndpoint parse_socket_endpoint(const std::string& spec);

struct SocketServerOptions {
  std::string listen;  // endpoint spec, see parse_socket_endpoint
  std::size_t max_clients = 256;
  /// Per-client in-flight quota: a map request arriving while this many
  /// of the SAME connection's map requests are still unanswered is
  /// rejected at the transport layer (status "rejected", retryable, with
  /// a retry_after_ms hint) without ever reaching the service — one
  /// firehosing client cannot monopolize the shared admission queue.
  /// 0 (the default) disables the quota; the service-wide max_pending
  /// bound still applies.
  std::size_t max_inflight_per_client = 0;
};

/// Serve until a "shutdown" request; returns a process exit code (0 on a
/// clean drain).  Prints one `{"event":"listening","endpoint":...}` line
/// to stdout once the socket is bound — for TCP with port 0 the endpoint
/// carries the kernel-assigned port, so spawners can connect without
/// racing the bind.
int run_socket_server(const SocketServerOptions& socket_options,
                      std::vector<arch::Board> boards,
                      const ServiceOptions& service_options);

/// Client side: blocking connect to a parsed endpoint.  Returns the
/// connected fd, or -1 with `error` describing why.  Used by
/// `mapper_serve --connect` and ProcessClient::connect, so tests and
/// demos need no external netcat.
int connect_socket_endpoint(const SocketEndpoint& endpoint,
                            std::string& error);

/// `mapper_serve --connect <spec>`: bridge stdin/stdout jsonl onto a
/// server socket — stdin EOF half-closes the socket (shutdown(WR)) and
/// the bridge keeps relaying responses until the server closes, exactly
/// the pipe mode's batch-then-read idiom over a socket.
int run_socket_client(const std::string& spec);

}  // namespace gmm::service
