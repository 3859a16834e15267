#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace rdse::serve {

namespace {

/// A hostile or broken client must not grow an unbounded line buffer.
constexpr std::size_t kMaxRequestBytes = 1 << 20;  // 1 MiB

/// Accept-loop poll period: the latency bound on noticing a stop request.
constexpr int kPollMs = 100;

std::string errno_text() { return std::strerror(errno); }

/// Fill a sockaddr_un for `path`; throws when the path does not fit the
/// (historically tiny) sun_path field.
sockaddr_un make_socket_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  RDSE_REQUIRE(path.size() < sizeof addr.sun_path,
               "socket path too long: '" + path + "'");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Write all of `text`, suppressing SIGPIPE (a vanished client is the
/// client's problem). Returns false when the peer is gone.
bool send_all(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n = ::send(fd, text.data() + sent, text.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// True when `path` holds a socket inode nobody accepts connections on —
/// the footprint of a daemon that died without unlinking. Probed with a
/// real connect(): a live daemon answers (or at least queues) the
/// connection, a dead one's address yields ECONNREFUSED. A non-socket
/// file squatting the path is never stale — we won't delete user data.
bool stale_socket(const std::string& path, const sockaddr_un& addr) {
  struct stat st{};
  if (::lstat(path.c_str(), &st) != 0 || !S_ISSOCK(st.st_mode)) {
    return false;
  }
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe < 0) return false;
  const bool connected =
      ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) == 0;
  const bool refused = !connected && errno == ECONNREFUSED;
  ::close(probe);
  return refused;
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)), service_(config_.service) {}

bool Server::stop_requested() const {
  if (stop_.load(std::memory_order_relaxed)) return true;
  return config_.external_stop != nullptr &&
         config_.external_stop->load(std::memory_order_relaxed);
}

void Server::reap_finished_threads() {
  // Joining a thread that just pushed its id blocks only for its final
  // instructions, so this is safe to run on the accept loop.
  std::vector<std::thread> done;
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    done.reserve(finished_ids_.size());
    for (const std::uint64_t id : finished_ids_) {
      const auto it = conn_threads_.find(id);
      if (it == conn_threads_.end()) continue;
      done.push_back(std::move(it->second));
      conn_threads_.erase(it);
    }
    finished_ids_.clear();
  }
  for (std::thread& t : done) t.join();
}

void Server::run() {
  const sockaddr_un addr = make_socket_address(config_.socket_path);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  RDSE_REQUIRE(listen_fd_ >= 0, "cannot create socket: " + errno_text());
  bool bound = ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0;
  if (!bound && errno == EADDRINUSE &&
      stale_socket(config_.socket_path, addr)) {
    // Crash recovery: the file exists but nobody answers on it — unlink
    // the leftover and claim the address. A live daemon is never stolen
    // from: the probe connect() would have succeeded.
    log_info("serve: removing stale socket " + config_.socket_path);
    ::unlink(config_.socket_path.c_str());
    bound = ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) == 0;
  }
  if (!bound) {
    const std::string what = errno_text();
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("cannot bind '" + config_.socket_path + "': " + what +
                (errno == EADDRINUSE ? " (another daemon is serving on it)"
                                     : ""));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string what = errno_text();
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
    throw Error("cannot listen on '" + config_.socket_path + "': " + what);
  }
  log_info("serve: listening on " + config_.socket_path);

  while (!stop_requested()) {
    reap_finished_threads();
    if (config_.reload_request != nullptr &&
        config_.reload_request->exchange(false,
                                         std::memory_order_relaxed)) {
      // SIGHUP: compact the cache database and the journal and re-apply
      // runtime config without touching the connection set or in-flight
      // work.
      log_info("serve: reload — compacting the cache database and journal");
      service_.reload();
      if (config_.on_reload) config_.on_reload();
    }
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    std::size_t open_conns = 0;
    {
      const std::lock_guard<std::mutex> lock(conn_mutex_);
      open_conns = conn_fds_.size();
    }
    if (open_conns >= config_.max_connections) {
      // Reject at accept: the client gets an immediate, retryable answer
      // instead of a thread, so hostile connection floods are O(1) cost.
      (void)send_all(conn,
                     make_error_response("connection limit reached",
                                         config_.service.retry_after_ms) +
                         "\n");
      ::close(conn);
      continue;
    }
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    const std::uint64_t id = next_conn_id_++;
    conn_fds_.insert(conn);
    conn_threads_.emplace(
        id, std::thread(&Server::handle_connection, this, id, conn));
  }

  // Graceful shutdown: no new connections, half-close the open ones so a
  // request already being executed still gets its response, join, drain.
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(config_.socket_path.c_str());
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
  }
  for (;;) {
    std::map<std::uint64_t, std::thread> remaining;
    {
      const std::lock_guard<std::mutex> lock(conn_mutex_);
      remaining.swap(conn_threads_);
      finished_ids_.clear();
    }
    if (remaining.empty()) break;
    for (auto& [id, t] : remaining) t.join();
  }
  service_.begin_drain();
  log_info("serve: drained, exiting");
}

void Server::handle_connection(std::uint64_t id, int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    std::size_t newline = 0;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const ExplorationService::Handled handled = service_.handle(line);
      if (!send_all(fd, handled.response + "\n")) {
        open = false;
        break;
      }
      if (handled.op == RequestOp::kShutdown && handled.ok) {
        request_stop();
        open = false;
        break;
      }
    }
    if (!open) break;
    if (buffer.size() > kMaxRequestBytes) {
      (void)send_all(fd,
                     make_error_response("request line too long") + "\n");
      break;
    }
    if (config_.idle_timeout_ms > 0) {
      // Slow-loris reaping: a client must deliver at least one byte per
      // idle window or lose the connection. SHUT_RD at shutdown makes the
      // fd readable, so the poll never delays a graceful stop.
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLIN;
      const int ready = ::poll(
          &pfd, 1,
          static_cast<int>(std::min<std::int64_t>(config_.idle_timeout_ms,
                                                  INT_MAX)));
      if (ready < 0 && errno == EINTR) continue;
      if (ready == 0) {
        (void)send_all(fd, make_error_response("idle timeout") + "\n");
        break;
      }
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, error, or our own SHUT_RD during shutdown
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  {
    // Deregister before closing so the shutdown path never half-closes a
    // recycled descriptor.
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    conn_fds_.erase(fd);
    finished_ids_.push_back(id);
  }
  ::close(fd);
}

std::string send_request(const std::string& socket_path,
                         const std::string& line, std::int64_t timeout_ms) {
  const sockaddr_un addr = make_socket_address(socket_path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  RDSE_REQUIRE(fd >= 0, "cannot create socket: " + errno_text());
  // One steady-clock deadline covers connect + send + the whole read: a
  // per-recv SO_RCVTIMEO would restart on every byte, letting a trickling
  // server stretch a "1 s timeout" arbitrarily.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  const auto remaining_ms = [&deadline, timeout_ms]() -> std::int64_t {
    if (timeout_ms <= 0) return -1;  // poll() forever
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    return std::max<std::int64_t>(left, 0);
  };
  if (timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string what = errno_text();
    ::close(fd);
    throw Error("cannot connect to '" + socket_path + "': " + what);
  }
  if (!send_all(fd, line + "\n")) {
    ::close(fd);
    throw Error("failed sending request to '" + socket_path + "'");
  }
  std::string response;
  char chunk[4096];
  for (;;) {
    const std::int64_t left = remaining_ms();
    if (left == 0) {
      ::close(fd);
      throw Error("failed reading response from '" + socket_path +
                  "': timed out");
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(
        &pfd, 1,
        static_cast<int>(std::min<std::int64_t>(left, INT_MAX)));
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) continue;  // re-check the deadline, then fail
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const std::string what = errno_text();
      ::close(fd);
      throw Error("failed reading response from '" + socket_path +
                  "': " + what);
    }
    if (n == 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
    if (const std::size_t newline = response.find('\n');
        newline != std::string::npos) {
      response.resize(newline);
      ::close(fd);
      return response;
    }
    RDSE_REQUIRE(response.size() <= kMaxRequestBytes * 8,
                 "response too large");
  }
  ::close(fd);
  throw Error("connection to '" + socket_path +
              "' closed before a response arrived");
}

}  // namespace rdse::serve
