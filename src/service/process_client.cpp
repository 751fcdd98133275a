#include "service/process_client.hpp"

#ifndef _WIN32

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "service/socket_server.hpp"
#include "support/rng.hpp"

namespace gmm::service {

namespace {

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

ProcessClient::~ProcessClient() {
  kill_child();
  close_fd(to_child_);
  close_fd(from_child_);
}

bool ProcessClient::start(const std::string& exe,
                          const std::vector<std::string>& args) {
  int in_pipe[2];   // parent -> child stdin
  int out_pipe[2];  // child stdout -> parent
  if (::pipe(in_pipe) != 0) return false;
  if (::pipe(out_pipe) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return false;
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) {
      ::close(fd);
    }
    return false;
  }
  if (pid == 0) {
    // Child: wire the pipes to stdio and exec.  stderr passes through.
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) {
      ::close(fd);
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(exe.c_str()));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);  // exec failed
  }

  // Parent.
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  to_child_ = in_pipe[1];
  from_child_ = out_pipe[0];
  pid_ = pid;
  // A dead child must surface as a failed send_line (EPIPE), not kill
  // the test/tool with SIGPIPE.  Only override the DEFAULT disposition:
  // a host program that installed its own handler keeps it (see the
  // header's note on this process-global effect).
  struct sigaction current = {};
  if (::sigaction(SIGPIPE, nullptr, &current) == 0 &&
      current.sa_handler == SIG_DFL) {
    ::signal(SIGPIPE, SIG_IGN);
  }
  return true;
}

bool ProcessClient::connect(const std::string& spec, double timeout_seconds) {
  if (to_child_ >= 0 || from_child_ >= 0) return false;  // already wired
  const SocketEndpoint endpoint = parse_socket_endpoint(spec);
  if (!endpoint.ok) return false;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  // Bounded exponential backoff with jitter between attempts: doubling
  // from 2ms up to a 100ms cap, each sleep drawn uniformly from
  // [base/2, base] so a storm of clients racing one server's bind does
  // not retry in lockstep.
  support::Rng rng(static_cast<std::uint64_t>(::getpid()) ^
                   static_cast<std::uint64_t>(
                       std::chrono::steady_clock::now().time_since_epoch()
                           .count()));
  double backoff_ms = 2.0;
  while (true) {
    std::string error;
    const int fd = connect_socket_endpoint(endpoint, error);
    if (fd >= 0) {
      to_child_ = fd;
      from_child_ = ::dup(fd);  // separate fds, one stream: close_stdin
                                // may release the write side alone
      if (from_child_ < 0) {
        ::close(fd);
        to_child_ = -1;
        return false;
      }
      socket_ = true;
      return true;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const double jittered =
        backoff_ms / 2.0 + rng.uniform_real() * (backoff_ms / 2.0);
    const double sleep_ms = std::min(
        jittered,
        std::chrono::duration<double, std::milli>(deadline - now).count());
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(std::max(sleep_ms, 0.5)));
    backoff_ms = std::min(backoff_ms * 2.0, 100.0);
  }
}

bool ProcessClient::send_line(const std::string& line) {
  if (to_child_ < 0) return false;
  std::string data = line;
  data.push_back('\n');
  std::size_t written = 0;
  while (written < data.size()) {
    // MSG_NOSIGNAL on the socket path: a dropped connection must fail
    // the send, not raise SIGPIPE (pipe mode relies on the SIG_IGN set
    // in start()).
    const ssize_t n =
        socket_ ? ::send(to_child_, data.data() + written,
                         data.size() - written, MSG_NOSIGNAL)
                : ::write(to_child_, data.data() + written,
                          data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> ProcessClient::read_line(double timeout_seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }
    if (from_child_ < 0) return std::nullopt;
    const auto remaining = deadline - std::chrono::steady_clock::now();
    const auto remaining_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
            .count();
    if (remaining_ms <= 0) return std::nullopt;
    struct pollfd pfd = {};
    pfd.fd = from_child_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining_ms));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (ready == 0) return std::nullopt;  // timeout
    char chunk[4096];
    const ssize_t n = ::read(from_child_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (n == 0) {
      // EOF.  An unterminated tail is a response the peer died writing
      // (a dropped connection), not a line: discard it.
      close_fd(from_child_);
      buffer_.clear();
      return std::nullopt;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void ProcessClient::close_stdin() {
  // In connect() mode the write side is half of one socket: shut it down
  // so the server sees EOF (its graceful-linger trigger) while our read
  // side (a dup) keeps delivering in-flight responses.
  if (socket_ && to_child_ >= 0) ::shutdown(to_child_, SHUT_WR);
  close_fd(to_child_);
}

int ProcessClient::wait_exit(double timeout_seconds) {
  if (pid_ <= 0) return -1;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  while (true) {
    int status = 0;
    const pid_t done = ::waitpid(static_cast<pid_t>(pid_), &status, WNOHANG);
    if (done == static_cast<pid_t>(pid_)) {
      pid_ = -1;
      if (WIFEXITED(status)) return WEXITSTATUS(status);
      return -1;
    }
    if (done < 0) {
      pid_ = -1;
      return -1;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      kill_child();
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void ProcessClient::kill_child() {
  if (pid_ <= 0) return;
  ::kill(static_cast<pid_t>(pid_), SIGKILL);
  int status = 0;
  ::waitpid(static_cast<pid_t>(pid_), &status, 0);
  pid_ = -1;
}

}  // namespace gmm::service

#else  // _WIN32

namespace gmm::service {

ProcessClient::~ProcessClient() = default;
bool ProcessClient::start(const std::string&,
                          const std::vector<std::string>&) {
  return false;
}
bool ProcessClient::connect(const std::string&, double) { return false; }
bool ProcessClient::send_line(const std::string&) { return false; }
std::optional<std::string> ProcessClient::read_line(double) {
  return std::nullopt;
}
void ProcessClient::close_stdin() {}
int ProcessClient::wait_exit(double) { return -1; }
void ProcessClient::kill_child() {}

}  // namespace gmm::service

#endif
