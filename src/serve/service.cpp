#include "serve/service.hpp"

#include <exception>
#include <future>
#include <initializer_list>
#include <iterator>
#include <utility>
#include <vector>

#include "baseline/mapper.hpp"
#include "core/report.hpp"
#include "core/sweep_engine.hpp"
#include "model/registry.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/time.hpp"

namespace rdse::serve {

namespace {

/// Deterministic per-run metrics block (no wall-clock fields: cached and
/// fresh responses must be byte-identical).
JsonValue metrics_payload(const Metrics& m, TimeNs deadline) {
  JsonValue doc = JsonValue::object();
  doc.set("makespan_ms", to_ms(m.makespan));
  doc.set("init_reconfig_ms", to_ms(m.init_reconfig));
  doc.set("dyn_reconfig_ms", to_ms(m.dyn_reconfig));
  doc.set("contexts", static_cast<std::int64_t>(m.n_contexts));
  doc.set("hw_tasks", static_cast<std::int64_t>(m.hw_tasks));
  doc.set("sw_tasks", static_cast<std::int64_t>(m.sw_tasks));
  if (deadline > 0) {
    doc.set("deadline_met", m.makespan <= deadline);
  }
  return doc;
}

/// A status block: one integer member per (name, count), in order.
JsonValue counters_json(
    std::initializer_list<std::pair<const char*, std::uint64_t>> counters) {
  JsonValue doc = JsonValue::object();
  for (const auto& [name, count] : counters) {
    doc.set(name, static_cast<std::int64_t>(count));
  }
  return doc;
}

/// True when the request's work, in the knobs its cache key keeps (so one
/// key has one cost), exceeds `cap`: grid points (1 for an explore) x runs
/// x per-run cost, which is batch x (iters + warmup) for the annealer,
/// iters for ga, random and hill_climb, and 1 for a seed-independent
/// mapper. Each factor is >= 1, so comparing against cap / total before
/// multiplying never overflows.
bool exceeds_work_cap(const Request& request, std::int64_t cap) {
  std::int64_t points = 1;
  if (request.op == RequestOp::kSweep && request.axis == "device-size") {
    points = std::ssize(request.sweep_sizes());
  } else if (request.op == RequestOp::kSweep) {
    points = std::ssize(request.sweep_schedules());
  }
  const bool anneal = request.mapper == "anneal";  // a sweep's, at K = 1
  std::int64_t per_probe = request.iterations;
  if (anneal) per_probe += request.warmup;
  if (mapper_is_deterministic(request.mapper)) per_probe = 1;
  const std::int64_t factors[] = {points, request.runs,
                                  anneal ? request.batch : 1, per_probe};
  std::int64_t total = 1;
  for (const std::int64_t factor : factors) {
    if (factor > cap / total) return true;
    total *= factor;
  }
  return false;
}

std::string plain_response(RequestOp op, JsonValue payload) {
  JsonValue doc = JsonValue::object();
  doc.set("ok", true);
  doc.set("op", to_string(op));
  doc.set("result", std::move(payload));
  return doc.dump();
}

/// What a work request's job hands back: its payload, or a failure's kind
/// and message. The caller gets the message, not the exception:
/// std::promise::set_exception takes its pointer by value and drops that
/// copy only after the caller may have woken, so the worker could destroy
/// an exception the caller is still reading. An exception outside
/// rdse::Error still travels as itself.
struct JobResult {
  enum class Kind : std::uint8_t { kDone, kCancelled, kError };
  Kind kind = Kind::kDone;
  std::string text;  ///< the payload, or the failure's message
};

}  // namespace

ExplorationService::ExplorationService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_capacity),
      pool_(config_.workers == 0 ? 1 : config_.workers),
      start_time_(std::chrono::steady_clock::now()) {
  if (!config_.persist_path.empty()) {
    cache_db_ = std::make_unique<CacheDb>(config_.persist_path, cache_);
  }
  if (!config_.journal_path.empty()) {
    journal_ = std::make_unique<WorkJournal>(config_.journal_path);
    if (!journal_->pending().empty()) {
      // Crash recovery: re-run the accepted-but-never-answered work in the
      // background so startup is not gated on it.
      replay_thread_ = std::thread([this] { replay_journal(); });
    }
  }
}

ExplorationService::~ExplorationService() {
  begin_drain();
  if (replay_thread_.joinable()) replay_thread_.join();
  // ThreadPool's destructor drains the queue and joins the workers; every
  // pending handle() caller is blocked on its job's future, which resolves
  // before the pool goes down.
}

void ExplorationService::begin_drain() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) return;
    draining_ = true;
  }
  // Final compaction: the next startup replays one record per live entry
  // and one per still-open journal key, and a result whose append failed
  // transiently is saved after all.
  if (cache_db_) cache_db_->compact();
  if (journal_) journal_->compact();
}

void ExplorationService::reload() {
  if (cache_db_) cache_db_->compact();
  if (journal_) journal_->compact();
}

void ExplorationService::journal_event(std::string_view event,
                                       const std::string& key) {
  if (journal_) (void)journal_->append(event, key);
}

void ExplorationService::replay_journal() {
  for (const std::string& key : journal_->pending()) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (draining_) return;
    }
    Request request;
    try {
      request = parse_request(JsonValue::parse(key));
    } catch (const Error&) {
      // Schema drift: a key this build cannot parse would otherwise be
      // re-attempted on every restart. Close it out instead.
      journal_event("cancelled", key);
      continue;
    }
    // A run journals its own transitions, and run_work_request closes out
    // a cache hit (the work completed before the crash, but its 'completed'
    // entry never reached the disk) or a rejected budget. Backpressure and
    // a drain leave the entry pending for the next startup.
    (void)run_work_request(request, /*replayed=*/true);
  }
}

ServiceStats ExplorationService::stats() const {
  ServiceStats s;
  s.cache = cache_.stats();
  const auto now = std::chrono::steady_clock::now();
  s.uptime_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                    now - start_time_)
                    .count();
  s.persist_enabled = cache_db_ != nullptr;
  if (cache_db_) s.persist = cache_db_->counters();
  s.journal_enabled = journal_ != nullptr;
  if (journal_) s.journal = journal_->counters();
  const std::lock_guard<std::mutex> lock(mutex_);
  s.queue_depth = waiting_;
  s.in_flight = in_flight_;
  s.in_flight_requests.reserve(in_flight_jobs_.size());
  for (const auto& [id, job] : in_flight_jobs_) {
    ServiceStats::InFlightInfo info;
    info.fingerprint = job.fingerprint;
    info.age_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now - job.started)
                      .count();
    s.in_flight_requests.push_back(std::move(info));
  }
  s.queue_capacity = config_.queue_capacity;
  s.workers = pool_.size();
  s.requests_total = requests_total_;
  s.completed = completed_;
  s.rejected = rejected_;
  s.errors = errors_;
  s.cancelled = cancelled_;
  return s;
}

JsonValue ExplorationService::status_payload() const {
  const ServiceStats s = stats();
  JsonValue doc = JsonValue::object();
  doc.set("uptime_ms", s.uptime_ms);
  doc.set("cache", counters_json({{"hits", s.cache.hits},
                                  {"misses", s.cache.misses},
                                  {"evictions", s.cache.evictions},
                                  {"entries", s.cache.entries},
                                  {"capacity", s.cache.capacity}}));
  doc.set("queue", counters_json({{"depth", s.queue_depth},
                                  {"in_flight", s.in_flight},
                                  {"capacity", s.queue_capacity},
                                  {"workers", s.workers}}));
  doc.set("requests", counters_json({{"total", s.requests_total},
                                     {"completed", s.completed},
                                     {"rejected", s.rejected},
                                     {"errors", s.errors},
                                     {"cancelled", s.cancelled}}));
  JsonValue in_flight = JsonValue::array();
  for (const ServiceStats::InFlightInfo& info : s.in_flight_requests) {
    JsonValue row = JsonValue::object();
    row.set("key", info.fingerprint);
    row.set("age_ms", info.age_ms);
    in_flight.push_back(std::move(row));
  }
  doc.set("in_flight_requests", std::move(in_flight));
  if (s.journal_enabled) {
    doc.set("journal",
            counters_json({{"replayed", s.journal.replayed},
                           {"skipped", s.journal.skipped},
                           {"compactions", s.journal.compactions},
                           {"appends", s.journal.appends},
                           {"append_failures", s.journal.append_failures}}));
  }
  if (s.persist_enabled) {
    doc.set("persist",
            counters_json(
                {{"loaded", s.persist.loaded},
                 {"skipped", s.persist.skipped},
                 {"appends", s.persist.appends},
                 {"append_failures", s.persist.append_failures},
                 {"compactions", s.persist.compactions},
                 {"compaction_failures", s.persist.compaction_failures}}));
  }
  return doc;
}

ExplorationService::Handled ExplorationService::handle(
    const std::string& line) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++requests_total_;
  }
  Handled handled;
  Request request;
  try {
    request = parse_request(JsonValue::parse(line));
  } catch (const Error& e) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++errors_;
    handled.response = make_error_response(e.what());
    return handled;
  }
  handled.op = request.op;
  switch (request.op) {
    case RequestOp::kStatus:
      handled.response = plain_response(request.op, status_payload());
      handled.ok = true;
      return handled;
    case RequestOp::kPing:
    case RequestOp::kShutdown:
      // Shutdown sequencing (stop accepting, drain) is the server's job;
      // the service just acknowledges.
      handled.response = plain_response(request.op, JsonValue::object());
      handled.ok = true;
      return handled;
    case RequestOp::kExplore:
    case RequestOp::kSweep:
      break;
  }
  handled.response = run_work_request(request);
  handled.ok = handled.response.rfind("{\"ok\": true", 0) == 0;
  return handled;
}

std::string ExplorationService::run_work_request(const Request& request,
                                                 bool replayed) {
  const std::string key = canonical_key(request);
  if (exceeds_work_cap(request, config_.max_iterations)) {
    if (replayed) journal_event("cancelled", key);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++errors_;
    return make_error_response(
        "request exceeds the iteration cap (" +
        std::to_string(config_.max_iterations) +
        "): points x runs x per-run cost (anneal: batch x (iters + warmup);"
        " ga, random, hill_climb: iters; other mappers: 1)");
  }

  const std::string fingerprint = fnv1a64_hex(key);
  if (auto hit = cache_.lookup(key)) {
    if (replayed) journal_event("completed", key);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++completed_;
    return make_result_response(request.op, true, fingerprint, *hit);
  }

  // Admission: bounded waiting set with immediate backpressure.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      ++errors_;
      return make_error_response("service is shutting down");
    }
    if (waiting_ >= config_.queue_capacity) {
      ++rejected_;
      return make_error_response("request queue is full",
                                 config_.retry_after_ms);
    }
    ++waiting_;
  }
  // Write-ahead: the acceptance is journaled before the job is submitted,
  // so a crash from here on leaves a pending entry that startup replays.
  journal_event("accepted", key);

  // Per-request deadline token, shared by reference with the worker: the
  // caller blocks on the future until the worker resolves it, so the
  // token outlives the job.
  CancelToken token;
  if (request.timeout_ms > 0) token.set_deadline_after_ms(request.timeout_ms);

  std::promise<JobResult> promise;
  std::future<JobResult> future = promise.get_future();
  pool_.submit([this, &request, &promise, &token, &key, &fingerprint] {
    std::uint64_t job_id = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --waiting_;
      if (draining_) {
        // Queued before the drain began, picked up after: cancel without
        // executing so shutdown is not gated on cold queue entries.
        promise.set_value({JobResult::Kind::kCancelled, "cancelled"});
        return;
      }
      ++in_flight_;
      job_id = ++next_job_id_;
      in_flight_jobs_.emplace(
          job_id,
          InFlightJob{fingerprint, std::chrono::steady_clock::now()});
    }
    journal_event("started", key);
    if (config_.on_job_start) config_.on_job_start();
    JobResult result;
    std::exception_ptr failure;
    try {
      throw_if_cancelled(&token);  // don't start work past the deadline
      result.text = execute(request, &token).dump();
    } catch (const Cancelled& e) {
      result = {JobResult::Kind::kCancelled, e.what()};
    } catch (const Error& e) {
      result = {JobResult::Kind::kError, e.what()};
    } catch (...) {
      failure = std::current_exception();
    }
    {
      // Drop the in-flight count *before* resolving the promise: once the
      // caller unblocks, stats() must no longer show this job as running.
      const std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      in_flight_jobs_.erase(job_id);
    }
    if (failure) {
      promise.set_exception(std::move(failure));
    } else {
      promise.set_value(std::move(result));
    }
  });

  // A failure outside rdse::Error propagates from get().
  const JobResult result = future.get();
  if (result.kind == JobResult::Kind::kDone) {
    cache_.insert(key, result.text);
    if (cache_db_) cache_db_->append(key, result.text);
    journal_event("completed", key);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++completed_;
    }
    return make_result_response(request.op, false, fingerprint, result.text);
  }
  // Deterministic, payload-free error: a deadline-expired or drain-
  // cancelled run never leaks a partial result and is never cached. The
  // client is told, so the journal entry is closed out.
  journal_event("cancelled", key);
  const std::lock_guard<std::mutex> lock(mutex_);
  ++(result.kind == JobResult::Kind::kCancelled ? cancelled_ : errors_);
  return make_error_response(result.text);
}

JsonValue ExplorationService::execute(const Request& request,
                                      const CancelToken* cancel) const {
  const ModelSpec model = load_model_spec(request.model);
  const SweepSpec spec = plan_request(request, model, cancel);
  const SweepResult result =
      SweepEngine(config_.run_threads).run(model.app.graph, spec);
  if (request.op == RequestOp::kSweep) {
    JsonValue doc = sweep_to_json(result);
    doc.set("model", model.app.name);
    return doc;
  }
  const SweepPointResult& point = result.points.front();
  JsonValue doc = JsonValue::object();
  doc.set("model", model.app.name);
  doc.set("mapper", request.mapper);
  doc.set("clbs", static_cast<std::int64_t>(request.clbs));
  doc.set("runs", static_cast<std::int64_t>(request.runs));
  doc.set("deadline_ms", to_ms(model.app.deadline));
  if (request.runs == 1) {
    doc.set("best", metrics_payload(point.runs.front().best_metrics,
                                    model.app.deadline));
  } else {
    doc.set("aggregate", aggregate_to_json(point.aggregate));
  }
  return doc;
}

}  // namespace rdse::serve
