#include "serve/protocol.hpp"

#include <algorithm>
#include <string_view>

#include "baseline/mapper.hpp"
#include "core/sweep_engine.hpp"
#include "model/registry.hpp"
#include "util/assert.hpp"

namespace rdse::serve {

namespace {

/// Fetch an integer field in [min, max]; `def` when absent. The error
/// names no front door, so it reads right from serve and the CLI.
std::int64_t int_field(const JsonValue& doc, const char* key,
                       std::int64_t def, std::int64_t min,
                       std::int64_t max) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr) return def;
  return v->as_int_in(min, max,
                      std::string("'") + key + "' must be an integer");
}

std::string string_field(const JsonValue& doc, const char* key,
                         const std::string& def) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr) return def;
  if (v->kind() != JsonValue::Kind::kString) {
    throw Error(std::string("'") + key + "' must be a string");
  }
  return v->as_string();
}

void require_known_fields(const JsonValue& doc,
                          std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : doc.members()) {
    bool known = false;
    for (const std::string_view a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw Error("unknown request field '" + key + "'");
    }
  }
}

}  // namespace

std::span<const std::int32_t> Request::sweep_sizes() const {
  if (sizes.empty()) return kFig3DeviceSizes;
  return sizes;
}

std::span<const ScheduleKind> Request::sweep_schedules() const {
  if (schedules.empty()) return kAllSchedules;
  return schedules;
}

const char* to_string(RequestOp op) {
  switch (op) {
    case RequestOp::kExplore: return "explore";
    case RequestOp::kSweep: return "sweep";
    case RequestOp::kStatus: return "status";
    case RequestOp::kPing: return "ping";
    case RequestOp::kShutdown: return "shutdown";
  }
  return "?";
}

Request parse_request(const JsonValue& doc) {
  if (doc.kind() != JsonValue::Kind::kObject) {
    throw Error("request must be a JSON object");
  }
  const JsonValue* op = doc.find("op");
  if (op == nullptr || op->kind() != JsonValue::Kind::kString) {
    throw Error("request is missing string field 'op'");
  }

  Request request;
  const std::string& name = op->as_string();
  if (name == "explore") {
    request.op = RequestOp::kExplore;
  } else if (name == "sweep") {
    request.op = RequestOp::kSweep;
    request.runs = 5;
    request.iterations = 15'000;
  } else if (name == "status") {
    request.op = RequestOp::kStatus;
  } else if (name == "ping") {
    request.op = RequestOp::kPing;
  } else if (name == "shutdown") {
    request.op = RequestOp::kShutdown;
  } else {
    throw Error("unknown op '" + name +
                "' (known: explore, sweep, status, ping, shutdown)");
  }

  switch (request.op) {
    case RequestOp::kStatus:
    case RequestOp::kPing:
    case RequestOp::kShutdown:
      require_known_fields(doc, {"op"});
      return request;
    case RequestOp::kExplore:
      require_known_fields(doc, {"op", "model", "mapper", "clbs", "runs",
                                 "seed", "iters", "warmup", "schedule",
                                 "batch", "timeout_ms"});
      break;
    case RequestOp::kSweep:
      require_known_fields(doc, {"op", "model", "axis", "sizes", "schedules",
                                 "clbs", "runs", "seed", "iters", "warmup",
                                 "timeout_ms"});
      break;
  }

  // Canonicalize at the front door: aliases ("motion_detection") and
  // non-canonical synthetic sizes ("synthetic:0500") collapse to one
  // spelling before the cache key is formed, and unknown models are
  // rejected before any work is queued.
  request.model = canonical_model_name(
      string_field(doc, "model", request.model));
  request.clbs = static_cast<std::int32_t>(
      int_field(doc, "clbs", request.clbs, 1, 1'000'000));
  request.runs =
      static_cast<int>(int_field(doc, "runs", request.runs, 1, 100'000));
  // Above 2^53 - 1 a JSON number cannot tell neighbouring seeds apart.
  request.seed = static_cast<std::uint64_t>(
      int_field(doc, "seed", static_cast<std::int64_t>(request.seed), 0,
                (std::int64_t{1} << 53) - 1));
  request.iterations = int_field(doc, "iters", request.iterations, 1,
                                 std::int64_t{1} << 40);
  request.warmup =
      int_field(doc, "warmup", request.warmup, 0, std::int64_t{1} << 40);
  // Deadline, capped at 24 h; 0 keeps the no-deadline default.
  request.timeout_ms =
      int_field(doc, "timeout_ms", request.timeout_ms, 0, 86'400'000);

  if (request.op == RequestOp::kExplore) {
    request.mapper = string_field(doc, "mapper", request.mapper);
    if (!is_known_mapper(request.mapper)) {
      throw Error("unknown mapper '" + request.mapper +
                  "' (known: " + known_mapper_names() + ")");
    }
    request.schedule = parse_schedule(
        string_field(doc, "schedule", to_string(request.schedule)));
    request.batch =
        static_cast<int>(int_field(doc, "batch", request.batch, 1, 1'024));
    return request;
  }

  // Sweep: the axis selects which grid fields are meaningful.
  request.axis = string_field(doc, "axis", request.axis);
  if (request.axis != "device-size" && request.axis != "schedule") {
    throw Error("unknown sweep axis '" + request.axis +
                "' (known: device-size, schedule)");
  }
  if (const JsonValue* sizes = doc.find("sizes")) {
    if (sizes->kind() != JsonValue::Kind::kArray || sizes->size() == 0) {
      throw Error("'sizes' must be a non-empty list");
    }
    for (const JsonValue& item : sizes->items()) {
      request.sizes.push_back(static_cast<std::int32_t>(
          item.as_int_in(1, 1'000'000, "'sizes' must hold integers")));
    }
  }
  if (const JsonValue* schedules = doc.find("schedules")) {
    if (schedules->kind() != JsonValue::Kind::kArray ||
        schedules->size() == 0) {
      throw Error("'schedules' must be a non-empty list");
    }
    for (const JsonValue& item : schedules->items()) {
      if (item.kind() != JsonValue::Kind::kString) {
        throw Error("'schedules' must hold schedule names, got " +
                    item.dump());
      }
      request.schedules.push_back(parse_schedule(item.as_string()));
    }
  }
  return request;
}

JsonValue normalized_request(const Request& request) {
  JsonValue doc = JsonValue::object();
  doc.set("op", to_string(request.op));
  if (request.op != RequestOp::kExplore && request.op != RequestOp::kSweep) {
    return doc;
  }
  doc.set("model", request.model);
  if (request.op == RequestOp::kExplore) {
    // Only the knobs the chosen mapper actually consumes enter the key:
    // a seed-independent mapper's result is a pure function of
    // (model, clbs, runs), and only the annealer reads warmup/schedule —
    // so e.g. every {"mapper": "heft"} query for one model and device
    // size is the same cache entry regardless of seed or budget.
    doc.set("mapper", request.mapper);
    doc.set("runs", static_cast<std::int64_t>(request.runs));
    if (!mapper_is_deterministic(request.mapper)) {
      doc.set("seed", static_cast<std::int64_t>(request.seed));
      doc.set("iters", request.iterations);
      if (request.mapper == "anneal") {
        doc.set("warmup", request.warmup);
      }
    }
    doc.set("clbs", static_cast<std::int64_t>(request.clbs));
    if (request.mapper == "anneal") {
      doc.set("schedule", rdse::to_string(request.schedule));
      // K = 1 stays out of the key so pre-batching cache entries (and the
      // minimized keys of every other request) are unchanged.
      if (request.batch != 1) {
        doc.set("batch", static_cast<std::int64_t>(request.batch));
      }
    }
    return doc;
  }
  doc.set("runs", static_cast<std::int64_t>(request.runs));
  doc.set("seed", static_cast<std::int64_t>(request.seed));
  doc.set("iters", request.iterations);
  doc.set("warmup", request.warmup);
  doc.set("axis", request.axis);
  if (request.axis == "device-size") {
    JsonValue sizes = JsonValue::array();
    for (const std::int32_t s : request.sweep_sizes()) {
      sizes.push_back(static_cast<std::int64_t>(s));
    }
    doc.set("sizes", std::move(sizes));
  } else {
    // Schedule axis: the device size is fixed and the schedule list is the
    // grid; the size grid is irrelevant and stays out of the key.
    doc.set("clbs", static_cast<std::int64_t>(request.clbs));
    JsonValue schedules = JsonValue::array();
    for (const ScheduleKind kind : request.sweep_schedules()) {
      schedules.push_back(rdse::to_string(kind));
    }
    doc.set("schedules", std::move(schedules));
  }
  return doc;
}

std::string canonical_key(const Request& request) {
  return normalized_request(request).dump();
}

SweepSpec plan_request(const Request& request, const ModelSpec& model,
                       const CancelToken* cancel) {
  RDSE_REQUIRE(request.op == RequestOp::kExplore ||
                   request.op == RequestOp::kSweep,
               "plan_request: not a work request");
  ExplorerConfig config;
  config.seed = request.seed;
  config.iterations = request.iterations;
  config.warmup_iterations = request.warmup;
  config.schedule = request.schedule;  // the defaults on a sweep request
  config.batch = request.batch;
  config.record_trace = false;
  config.cancel = cancel;
  if (request.op == RequestOp::kSweep && request.axis == "device-size") {
    return device_size_sweep(request.sweep_sizes(), model.tr_per_clb,
                             model.bus_bytes_per_second, config,
                             request.runs, model.app.deadline);
  }
  const Architecture arch = make_cpu_fpga_architecture(
      request.clbs, model.tr_per_clb, model.bus_bytes_per_second);
  if (request.op == RequestOp::kSweep) {
    return schedule_sweep(request.sweep_schedules(), arch, config,
                          request.runs, model.app.deadline);
  }
  // An explore is a one-point sweep of the requested mapper, the annealer
  // included.
  const std::string mapper[] = {request.mapper};
  return mapper_sweep(mapper, arch, config, request.runs, model.app.deadline,
                      "", request.clbs);
}

std::string make_error_response(const std::string& message,
                                std::int64_t retry_after_ms) {
  JsonValue doc = JsonValue::object();
  doc.set("ok", false);
  doc.set("error", message);
  if (retry_after_ms >= 0) doc.set("retry_after_ms", retry_after_ms);
  return doc.dump();
}

std::int64_t backoff_delay_ms(int attempt, std::int64_t base_ms,
                              std::int64_t cap_ms,
                              std::int64_t server_hint_ms) {
  RDSE_REQUIRE(attempt >= 0 && base_ms >= 0 && cap_ms >= 0,
               "backoff_delay_ms: negative attempt or delay");
  // Shift without overflow: once the doubling passes the cap the cap wins,
  // so attempts beyond 62 need no special casing.
  std::int64_t delay = base_ms;
  for (int k = 0; k < attempt && delay < cap_ms; ++k) delay *= 2;
  delay = std::min(delay, cap_ms);
  return std::max(delay, std::max<std::int64_t>(server_hint_ms, 0));
}

std::string make_result_response(RequestOp op, bool cached,
                                 const std::string& key_hex,
                                 const std::string& payload_json) {
  // Assembled textually so the payload bytes embed verbatim: a cache hit
  // returns exactly the bytes the fresh run produced. Envelope fields are
  // fixed-charset strings that need no escaping.
  std::string out = "{\"ok\": true, \"op\": \"";
  out += to_string(op);
  out += "\", \"cached\": ";
  out += cached ? "true" : "false";
  out += ", \"key\": \"";
  out += key_hex;
  out += "\", \"result\": ";
  out += payload_json;
  out += '}';
  return out;
}

}  // namespace rdse::serve
