#pragma once
/// \file service.hpp
/// \brief The exploration service: request execution, admission control and
/// the solution cache — everything `rdse serve` does except the socket.
///
/// ExplorationService turns one request line into one response line. Work
/// requests (explore/sweep) are memoized through the SolutionCache — a
/// repeated identical request is O(1) and bit-identical to a fresh run —
/// and executed on a util/ThreadPool behind a *bounded* admission queue:
/// when `queue_capacity` requests are already waiting, new work is rejected
/// immediately with a retry_after_ms backpressure hint instead of being
/// queued without bound or dropped. status/ping are served inline (they
/// must answer even when the queue is full). The class is fully
/// thread-safe: the socket server calls handle() from many connection
/// threads concurrently.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/journal.hpp"
#include "serve/persist.hpp"
#include "serve/protocol.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace rdse::serve {

struct ServiceConfig {
  /// Worker threads executing explore/sweep requests.
  unsigned workers = 2;
  /// Maximum requests *waiting* for a worker; beyond it new work is
  /// rejected with a backpressure error carrying `retry_after_ms`.
  std::size_t queue_capacity = 16;
  /// Solution-cache entries (0 disables caching).
  std::size_t cache_capacity = 128;
  /// SweepEngine threads per request (0 = hardware concurrency). Keep the
  /// product workers * run_threads near the core count.
  unsigned run_threads = 1;
  /// Reject requests whose whole work — grid points (1 for an explore) x
  /// runs x batch x (iters + warmup) — exceeds this cap, so one oversized
  /// request cannot starve the queue. The default admits the protocol's
  /// default sweep (13 x 5 x 16 200 = 1 053 000).
  std::int64_t max_iterations = 2'000'000;
  std::int64_t retry_after_ms = 250;
  /// Path of the persisted solution cache (serve/persist.hpp); empty
  /// disables persistence.
  std::string persist_path;
  /// Path of the write-ahead work journal (serve/journal.hpp); empty
  /// disables journaling. Replayed at construction, where
  /// accepted-but-not-completed work is re-enqueued in the background;
  /// compacted with the cache database and by its own size rule.
  std::string journal_path;
  /// Test hook: invoked by a worker when it starts executing a request
  /// (before any annealing). Lets tests hold workers inside a job to
  /// exercise the queue-full path deterministically.
  std::function<void()> on_job_start;
};

/// Aggregate counters surfaced through the `status` request.
struct ServiceStats {
  SolutionCache::Stats cache;
  std::size_t queue_depth = 0;      ///< requests waiting for a worker
  std::size_t in_flight = 0;        ///< requests executing right now
  std::size_t queue_capacity = 0;
  unsigned workers = 0;
  std::uint64_t requests_total = 0;  ///< every line handled, any op
  std::uint64_t completed = 0;       ///< work requests answered ok
  std::uint64_t rejected = 0;        ///< backpressure rejections
  std::uint64_t errors = 0;          ///< malformed / failed requests
  std::uint64_t cancelled = 0;       ///< deadline-expired + drain-cancelled
  bool persist_enabled = false;
  CacheDb::Counters persist;
  std::int64_t uptime_ms = 0;  ///< since service construction
  /// One entry per request executing right now: the request fingerprint
  /// (fnv64 hex of its canonical key) and how long it has been running.
  struct InFlightInfo {
    std::string fingerprint;
    std::int64_t age_ms = 0;
  };
  std::vector<InFlightInfo> in_flight_requests;
  bool journal_enabled = false;
  WorkJournal::Counters journal;
};

class ExplorationService {
 public:
  explicit ExplorationService(ServiceConfig config = {});

  /// Drains queued and in-flight work, then joins the workers.
  ~ExplorationService();

  ExplorationService(const ExplorationService&) = delete;
  ExplorationService& operator=(const ExplorationService&) = delete;

  struct Handled {
    std::string response;  ///< one response line (no trailing newline)
    RequestOp op = RequestOp::kStatus;
    bool ok = false;
  };

  /// Handle one request line; blocks until the response is ready (cache
  /// hits and status/ping return immediately; queue-full work returns the
  /// backpressure error immediately). Never throws: every failure becomes
  /// an error response.
  [[nodiscard]] Handled handle(const std::string& line);

  /// Stop admitting work requests (they get a "shutting down" error);
  /// queued-but-unstarted work is cancelled at pickup (its caller gets a
  /// "cancelled" error without the run executing), in-flight runs still
  /// complete, and the persisted cache and the journal — if any — are
  /// compacted.
  void begin_drain();

  /// SIGHUP hook: compact the persisted cache and the journal without
  /// touching admission state — connections and in-flight work continue.
  void reload();

  [[nodiscard]] ServiceStats stats() const;

 private:
  /// `replayed`: crash-recovered journal work, whose entry this closes
  /// out when it ends without running (a cache hit, a rejected budget).
  [[nodiscard]] std::string run_work_request(const Request& request,
                                             bool replayed = false);
  [[nodiscard]] JsonValue execute(const Request& request,
                                  const CancelToken* cancel) const;
  [[nodiscard]] JsonValue status_payload() const;
  void journal_event(std::string_view event, const std::string& key);
  void replay_journal();

  ServiceConfig config_;
  SolutionCache cache_;
  ThreadPool pool_;
  std::unique_ptr<CacheDb> cache_db_;
  std::unique_ptr<WorkJournal> journal_;
  std::chrono::steady_clock::time_point start_time_;
  /// Re-runs crash-recovered journal entries; joined before the pool dies.
  std::thread replay_thread_;

  mutable std::mutex mutex_;  ///< admission state + counters
  std::size_t waiting_ = 0;
  std::size_t in_flight_ = 0;
  /// Requests executing right now, keyed by a per-job id (registry for the
  /// status report's per-request ages).
  struct InFlightJob {
    std::string fingerprint;
    std::chrono::steady_clock::time_point started;
  };
  std::uint64_t next_job_id_ = 0;
  std::map<std::uint64_t, InFlightJob> in_flight_jobs_;
  bool draining_ = false;
  std::uint64_t requests_total_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t cancelled_ = 0;
};

}  // namespace rdse::serve
