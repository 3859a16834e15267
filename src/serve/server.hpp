#pragma once
/// \file server.hpp
/// \brief Unix-domain stream-socket front end for the exploration service.
///
/// `Server::run()` binds `socket_path`, accepts connections, and answers
/// newline-delimited JSON requests (see serve/protocol.hpp) by calling the
/// in-process ExplorationService from one thread per connection — the
/// service's bounded queue, not the connection count, is the concurrency
/// limit on actual exploration work. Shutdown is graceful: a `shutdown`
/// request (or request_stop(), or the optional external stop flag wired to
/// a signal handler) stops the accept loop, half-closes open connections
/// so their current request still gets its response, joins every
/// connection thread, and drains in-flight runs before returning.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"

namespace rdse::serve {

struct ServerConfig {
  /// Filesystem path of the Unix-domain socket. A *live* socket (another
  /// daemon answering on it) must not be stolen; a stale file left by a
  /// crashed daemon — nobody accepts connections on it — is unlinked and
  /// the bind retried, so a `kill -9`'d server restarts cleanly.
  std::string socket_path;
  ServiceConfig service;
  /// Per-connection idle read timeout: a connection that sends no byte for
  /// this long is answered with an error and closed, so slow-loris clients
  /// cannot pin connection threads forever. 0 = no timeout.
  std::int64_t idle_timeout_ms = 30'000;
  /// Maximum concurrently open connections; past it new connections are
  /// rejected at accept with a retryable error instead of queueing an
  /// unbounded number of connection threads.
  std::size_t max_connections = 64;
  /// Optional externally owned stop flag, polled by the accept loop — the
  /// CLI points it at an atomic its signal handler sets (a signal handler
  /// cannot safely call into the server).
  const std::atomic<bool>* external_stop = nullptr;
  /// Optional externally owned reload flag (SIGHUP). When the accept loop
  /// observes it set it clears it, calls the service's reload() (which
  /// compacts the cache database and the journal), and invokes
  /// `on_reload` — all without dropping connections or in-flight work.
  std::atomic<bool>* reload_request = nullptr;
  /// Called on the accept loop after a reload (the CLI re-applies the log
  /// level here).
  std::function<void()> on_reload;
};

class Server {
 public:
  explicit Server(ServerConfig config);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and serve until stopped; returns after the graceful
  /// drain. Throws Error when the socket cannot be created or bound.
  void run();

  /// Ask the accept loop to stop (thread-safe; callable from connection
  /// threads and tests).
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] ExplorationService& service() { return service_; }

 private:
  void handle_connection(std::uint64_t id, int fd);
  void reap_finished_threads();
  [[nodiscard]] bool stop_requested() const;

  ServerConfig config_;
  ExplorationService service_;
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;

  std::mutex conn_mutex_;
  std::set<int> conn_fds_;
  /// Live connection threads by id; a thread moves its id to finished_ids_
  /// on exit and the accept loop joins-and-erases it, so a long-lived
  /// daemon does not accumulate one dead std::thread per connection.
  std::map<std::uint64_t, std::thread> conn_threads_;
  std::vector<std::uint64_t> finished_ids_;
  std::uint64_t next_conn_id_ = 0;
};

/// Client side: connect to `socket_path`, send one request line, return the
/// response line (newline stripped). `timeout_ms` > 0 is an *overall*
/// deadline covering the whole exchange — a server trickling one byte per
/// read cannot extend it. Throws Error on connect/IO failure or timeout.
[[nodiscard]] std::string send_request(const std::string& socket_path,
                                       const std::string& line,
                                       std::int64_t timeout_ms = 0);

}  // namespace rdse::serve
