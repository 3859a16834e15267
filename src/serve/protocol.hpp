#pragma once
/// \file protocol.hpp
/// \brief The `rdse serve` wire protocol: newline-delimited JSON requests
/// and responses over a local stream socket. Request is also how the
/// `rdse explore`, `bench` and `sweep` commands describe their work.
///
/// One request is one JSON object on one line. Parsing is strict — unknown
/// fields, wrong types, non-integral counts and out-of-range values are
/// rejected with an error naming the field and its range instead of being
/// silently defaulted; this is the hardened front door that untrusted
/// request traffic flows through. Every bound lies below 2^53, so a number
/// a double would round is rejected. Operations:
///
///   {"op": "explore", "model": "motion", "mapper": "anneal",
///    "clbs": 2000, "runs": 1, "seed": 1, "iters": 20000, "warmup": 1200,
///    "schedule": "modified-lam", "batch": 1}
///                               ("mapper" picks any registered mapper;
///                                "batch" = annealer probes per step, K >= 1)
///   {"op": "sweep", "model": "motion", "axis": "device-size",
///    "sizes": [400, 800], "runs": 5, "seed": 1, "iters": 15000,
///    "warmup": 1200}            (axis "schedule" takes "schedules"/"clbs")
///   {"op": "status"}            counters: cache, queue, request totals
///   {"op": "ping"}              liveness probe
///   {"op": "shutdown"}          drain in-flight runs, then exit
///
/// Every omitted field takes the documented default, and two requests that
/// normalize to the same document are the *same* request: the canonical
/// key (normalized document dump) keys the solution cache, so repeated
/// queries are served in O(1) with bit-identical result payloads.
///
/// Responses:
///   {"ok": true, "op": ..., "cached": false, "key": "<fnv64 hex>",
///    "result": {...}}
///   {"ok": false, "error": "..."}                  (malformed request)
///   {"ok": false, "error": "...", "retry_after_ms": N}   (backpressure)

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "anneal/schedule.hpp"
#include "core/sweep_engine.hpp"
#include "model/registry.hpp"
#include "util/json.hpp"

namespace rdse::serve {

enum class RequestOp : std::uint8_t {
  kExplore,
  kSweep,
  kStatus,
  kPing,
  kShutdown,
};

[[nodiscard]] const char* to_string(RequestOp op);

/// A validated request with every field defaulted. Sweep-only fields are
/// meaningful only when op == kSweep; `sizes`/`schedules` empty means the
/// documented default grid (Fig. 3 sizes / all four schedules).
struct Request {
  RequestOp op = RequestOp::kStatus;
  std::string model = "motion";
  std::string mapper = "anneal";  ///< explore only; a registered mapper name
  std::int32_t clbs = 2'000;
  int runs = 1;
  std::uint64_t seed = 1;  ///< [0, 2^53 - 1]: exact as a JSON number
  std::int64_t iterations = 20'000;
  std::int64_t warmup = 1'200;
  ScheduleKind schedule = ScheduleKind::kModifiedLam;
  int batch = 1;  ///< explore only: annealer probes per step (best-of-K)
  std::string axis = "device-size";
  std::vector<std::int32_t> sizes;
  std::vector<ScheduleKind> schedules;
  /// Work-request deadline in milliseconds; 0 = no deadline. An execution
  /// knob, not part of the work's identity: it never enters the normalized
  /// request or the cache key, so a request with a deadline hits the same
  /// cache entry as the one without.
  std::int64_t timeout_ms = 0;

  /// The sweep grid: `sizes` / `schedules`, or the default when empty.
  [[nodiscard]] std::span<const std::int32_t> sweep_sizes() const;
  [[nodiscard]] std::span<const ScheduleKind> sweep_schedules() const;
};

/// Parse and validate one request document. Throws Error on anything
/// malformed: missing/unknown op, unknown fields, wrong types, non-integral
/// or out-of-range numbers, bad schedule/axis names.
[[nodiscard]] Request parse_request(const JsonValue& doc);

/// The canonical form of a work request: fixed field order, every default
/// made explicit, irrelevant fields dropped (a device-size sweep ignores
/// "schedules" and "clbs"; an explore with a seed-independent mapper drops
/// the stochastic knobs, and only the annealer keeps "warmup"/"schedule").
/// Requests that normalize identically are identical work.
[[nodiscard]] JsonValue normalized_request(const Request& request);

/// Cache key: the compact dump of normalized_request().
[[nodiscard]] std::string canonical_key(const Request& request);

/// The one plan of a work request, for serve and the CLI alike: an explore
/// is a one-point mapper_sweep on a `clbs`-CLB device (label "", x = clbs),
/// a sweep its axis grid. Every point's config carries `cancel`.
[[nodiscard]] SweepSpec plan_request(const Request& request,
                                     const ModelSpec& model,
                                     const CancelToken* cancel = nullptr);

/// Error response line (no trailing newline). `retry_after_ms` >= 0 adds
/// the backpressure hint field.
[[nodiscard]] std::string make_error_response(const std::string& message,
                                              std::int64_t retry_after_ms =
                                                  -1);

/// Success envelope around a result payload. `payload_json` is embedded
/// verbatim, so a cached payload is returned byte-identical to the fresh
/// run that produced it.
[[nodiscard]] std::string make_result_response(RequestOp op, bool cached,
                                               const std::string& key_hex,
                                               const std::string&
                                                   payload_json);

/// Client retry schedule: the delay before retry attempt `attempt`
/// (0-based), as max(min(base_ms << attempt, cap_ms), server_hint_ms).
/// Pure and deterministic so tests can assert the exact schedule; a
/// negative server hint (no retry_after_ms in the response) is ignored.
[[nodiscard]] std::int64_t backoff_delay_ms(int attempt,
                                            std::int64_t base_ms,
                                            std::int64_t cap_ms,
                                            std::int64_t server_hint_ms);

}  // namespace rdse::serve
