/// \file serve.cpp
/// \brief The serve-mix workload's client and the traced serve layer probe.
///
/// The client drives a running `rdse serve` daemon over its Unix socket
/// with two persistent connections in a closed loop (each caller waits for
/// its answer, as a DSE tool does). Request streams are generated here from
/// the benchmark seed; the daemon only ever sees the request lines.

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/journal.hpp"
#include "serve/persist.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using rdse::JsonValue;

// ---------------------------------------------------------------- streams

/// Requests per connection in one session (one daemon lifetime). A session
/// ends with about 160 cache entries (~0.1 MB persisted); run.py runs many
/// short sessions per run.
constexpr int kRequestsPerConnection = 200;
/// Preloaded cache entries, written by the untimed preparation session.
constexpr int kPreload = 40;

const char* const kDeterministicMappers[] = {"heft", "peft", "list_scheduler",
                                             "clustering"};

/// One work request of a serve stream and whether the daemon is expected
/// to answer it from the cache.
struct StreamRequest {
  std::string line;
  bool expect_hit = false;
};

/// Small deterministic RNG for stream generation (SplitMix64 stream).
class StreamRng {
 public:
  explicit StreamRng(std::uint64_t seed) : state_(mix64(seed)) {}
  std::uint64_t next() { return state_ = mix64(state_); }
  int below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t state_;
};

std::string det_request(const std::string& model, const char* mapper,
                        int clbs) {
  std::ostringstream s;
  s << "{\"op\": \"explore\", \"model\": \"" << model << "\", \"mapper\": \""
    << mapper << "\", \"clbs\": " << clbs << "}";
  return s.str();
}

std::string anneal_request(std::uint64_t seed) {
  std::ostringstream s;
  s << "{\"op\": \"explore\", \"model\": \"motion\", \"mapper\": \"anneal\", "
       "\"iters\": 1500, \"warmup\": 200, \"seed\": "
    << seed << "}";
  return s.str();
}

std::string sweep_request(std::uint64_t seed) {
  std::ostringstream s;
  s << "{\"op\": \"sweep\", \"model\": \"motion\", \"axis\": "
       "\"device-size\", \"sizes\": [500, 1500], \"runs\": 2, \"iters\": "
       "600, \"warmup\": 200, \"seed\": "
    << seed << "}";
  return s.str();
}

std::string small_model(StreamRng& rng) {
  return "synthetic:" + std::to_string(20 + rng.below(101));
}

/// serve-mix: the preload set and the two connections' streams. Every fresh
/// request is unique (its clbs or seed encodes the session, connection and
/// position), so whether a request hits is known in advance. Each
/// connection repeats the 20-slot pattern kMixPattern: 14 hits (70%),
/// 4 deterministic-mapper explores (20%), 1 short motion anneal (5%) and
/// 1 small device-size sweep (5%). The seed picks the models, mappers,
/// annealing seeds and repeated requests, never the proportions, so the
/// request p50 stays well inside the hits.
struct ServeMix {
  std::vector<std::string> preload;
  std::vector<StreamRequest> conn[2];
};

constexpr char kMixPattern[] = "dhhhhahhdhhhhshhdhhd";

ServeMix make_serve_mix(std::uint64_t seed, std::uint64_t session) {
  ServeMix mix;
  StreamRng rng(seed ^ 0x7365727665ULL);
  for (int j = 0; j < kPreload; ++j) {
    if (j % 10 == 9) {
      mix.preload.push_back(anneal_request(1'000'000 + j));
    } else {
      mix.preload.push_back(det_request(small_model(rng),
                                        kDeterministicMappers[j % 4],
                                        20'000 + j));
    }
  }
  // Annealing seeds of this session's fresh requests: a seed-derived base
  // plus the request's unique position.
  const std::uint64_t fresh_seed =
      2'000'000 + (op_seed(seed, 1'000 + session) % 1'000'000'000) * 1'000;
  for (int c = 0; c < 2; ++c) {
    StreamRng crng(op_seed(seed, 2 * session + static_cast<std::uint64_t>(c)));
    std::vector<std::string> fresh;
    for (int i = 0; i < kRequestsPerConnection; ++i) {
      const int uid = 2 * i + c;  // unique across both connections
      const char kind = kMixPattern[i % (sizeof kMixPattern - 1)];
      StreamRequest r;
      if (kind == 'h') {
        r.expect_hit = true;
        if (!fresh.empty() && crng.below(3) != 0) {
          r.line = fresh[static_cast<std::size_t>(
              crng.below(static_cast<int>(fresh.size())))];
        } else {
          // Preloaded entries: even ones for connection 0, odd for 1.
          r.line = mix.preload[static_cast<std::size_t>(
              2 * crng.below(kPreload / 2) + c)];
        }
      } else if (kind == 'd') {
        r.line = det_request(small_model(crng),
                             kDeterministicMappers[crng.below(4)], 100 + uid);
      } else if (kind == 'a') {
        r.line = anneal_request(fresh_seed + static_cast<std::uint64_t>(uid));
      } else {
        r.line = sweep_request(fresh_seed + static_cast<std::uint64_t>(uid));
      }
      if (!r.expect_hit) fresh.push_back(r.line);
      mix.conn[c].push_back(std::move(r));
    }
  }
  return mix;
}

// ------------------------------------------------------------ responses

bool response_ok(const std::string& resp) {
  return resp.rfind("{\"ok\": true", 0) == 0;
}

/// -1: no cached flag, 0: fresh, 1: cached.
int response_cached(const std::string& resp) {
  if (resp.find("\"cached\": true") != std::string::npos) return 1;
  if (resp.find("\"cached\": false") != std::string::npos) return 0;
  return -1;
}

/// The result payload bytes of a success envelope (embedded verbatim by
/// the daemon, so hits and fresh runs compare byte for byte).
std::string response_payload(const std::string& resp) {
  const std::string marker = "\"result\": ";
  const std::size_t at = resp.find(marker);
  if (at == std::string::npos || resp.empty() || resp.back() != '}') return "";
  const std::size_t from = at + marker.size();
  return resp.substr(from, resp.size() - 1 - from);
}

/// Best makespan of a single-run explore payload.
double payload_makespan(const std::string& payload) {
  return JsonValue::parse(payload).at("best").at("makespan_ms").as_number();
}

// --------------------------------------------------------------- client

/// The in-session ping-pong's typical round trip on the reference host.
constexpr double kNominalPingpongUs = 21.0;

/// A forked echo process on a socketpair (benchmark-owned). One-byte round
/// trips to it measure the host's cross-process wake-up latency, which
/// dominates a cache hit's round trip to the daemon and drifts with the
/// load on the host and inside the VM. Each connection times one round
/// trip before each of its requests, under the same load as the requests,
/// and a session's latencies are reported scaled by kNominalPingpongUs /
/// the median round trip. Create echoes while the client has no other
/// threads, so that fork() is safe.
class Echo {
 public:
  Echo() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error(std::string("socketpair(): ") +
                               std::strerror(errno));
    }
    pid_ = ::fork();
    if (pid_ < 0) {
      const std::string why = std::strerror(errno);
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("fork(): " + why);
    }
    if (pid_ == 0) {
      ::close(fds[0]);
      char c = 0;
      while (::read(fds[1], &c, 1) == 1 && ::write(fds[1], &c, 1) == 1) {
      }
      ::_exit(0);
    }
    ::close(fds[1]);
    fd_ = fds[0];
  }
  ~Echo() {
    ::close(fd_);  // the echo process sees end of file and exits
    ::waitpid(pid_, nullptr, 0);
  }
  Echo(const Echo&) = delete;
  Echo& operator=(const Echo&) = delete;
  Echo(Echo&&) = delete;
  Echo& operator=(Echo&&) = delete;

  /// One round trip in microseconds; -1 when the echo process is gone.
  double round_trip_us() {
    char c = 'x';
    const std::int64_t t = now_ns();
    if (::write(fd_, &c, 1) != 1 || ::read(fd_, &c, 1) != 1) return -1.0;
    return static_cast<double>(now_ns() - t) * 1e-3;
  }

 private:
  int fd_ = -1;
  pid_t pid_ = -1;
};

/// One persistent client connection speaking NDJSON.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket(): " + errno_text());
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      const std::string why = errno_text();
      ::close(fd_);
      throw std::runtime_error("connect(" + path + "): " + why);
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Send one request line and wait for its response line.
  std::string round_trip(const std::string& line) {
    std::string out = line;
    out += '\n';
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send(): " + errno_text());
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string resp = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return resp;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("connection closed by daemon");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  static std::string errno_text() { return std::strerror(errno); }
  int fd_ = -1;
  std::string buf_;
};

struct Answer {
  std::string response;
  double ms = 0.0;
  double pingpong_us = -1.0;  ///< the echo round trip just before it
  bool transport_error = false;
};

/// Closed loop over one connection's stream.
std::vector<Answer> drive_connection(const std::string& socket,
                                     const std::vector<StreamRequest>& stream,
                                     int conn, Echo& echo, Tracer& tracer) {
  std::vector<Answer> answers(stream.size());
  try {
    Connection c(socket);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::int64_t id = (static_cast<std::int64_t>(conn) << 32) |
                              static_cast<std::int64_t>(i);
      answers[i].pingpong_us = echo.round_trip_us();
      const std::int64_t t0 = now_ns();
      answers[i].response = c.round_trip(stream[i].line);
      const std::int64_t t1 = now_ns();
      tracer.add(stream[i].expect_hit ? "client.request.hit"
                                      : "client.request.cold",
                 t0, t1, -1, id);
      answers[i].ms = static_cast<double>(t1 - t0) * 1e-6;
    }
  } catch (const std::exception& e) {
    for (Answer& a : answers) {
      if (a.response.empty()) {
        a.transport_error = true;
        a.response = e.what();
      }
    }
  }
  return answers;
}

/// Connect once the daemon listens (the accept loop may still be starting).
std::unique_ptr<Connection> connect_when_ready(const std::string& socket) {
  const std::int64_t start = now_ns();
  for (;;) {
    try {
      return std::make_unique<Connection>(socket);
    } catch (const std::exception&) {
      if (seconds_since(start) > 10.0) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

JsonValue read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return JsonValue::parse(ss.str());
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

int run_prep(const RunOptions& opt, const ServeMix& mix) {
  Report report;
  JsonValue payloads = JsonValue::object();
  Connection c(opt.socket);
  for (const std::string& line : mix.preload) {
    report.attempt();
    const std::string resp = c.round_trip(line);
    if (!response_ok(resp) || response_cached(resp) != 0) {
      report.fail("preparation request not answered fresh: " + resp);
      continue;
    }
    payloads.set(line, response_payload(resp));
  }
  write_text_file(opt.run_dir + "/prep-payloads.json", payloads.dump());
  report.write(opt.out);
  return 0;
}

int run_session(const RunOptions& opt, const ServeMix& mix) {
  Report report;
  Tracer tracer(opt.trace);
  const JsonValue prep = read_json_file(opt.run_dir + "/prep-payloads.json");

  // Untimed warm-up operation: one preloaded entry, which must hit.
  {
    report.attempt();
    Connection c(opt.socket);
    const std::string& line = mix.preload.back();
    const std::string resp = c.round_trip(line);
    const JsonValue* want = prep.find(line);
    if (!response_ok(resp) || response_cached(resp) != 1 || want == nullptr ||
        response_payload(resp) != want->as_string()) {
      report.fail("warm-up hit on the preloaded cache failed: " + resp);
    }
  }

  // Host-speed kernel around the stream (the daemon is idle then).
  HostSpeed host;
  host.burst(10);
  // Destroyed in reverse order, which the echoes rely on: the second echo
  // process inherited the first one's socket and must exit first.
  Echo echoes[2];
  std::vector<Answer> answers[2];
  const std::int64_t start = now_ns();
  {
    std::thread other([&] {
      answers[1] =
          drive_connection(opt.socket, mix.conn[1], 1, echoes[1], tracer);
    });
    answers[0] =
        drive_connection(opt.socket, mix.conn[0], 0, echoes[0], tracer);
    other.join();
  }
  const double session_s = seconds_since(start);
  host.burst(10);
  const double speed = host.overall_speed();
  std::vector<double> pingpongs;
  for (const auto& conn : answers) {
    for (const Answer& a : conn) {
      if (a.pingpong_us > 0.0) pingpongs.push_back(a.pingpong_us);
    }
  }
  if (pingpongs.empty()) throw std::runtime_error("echo process failed");
  const double pp = median(pingpongs);

  JsonValue cold_ms = JsonValue::array();
  JsonValue hit_ms = JsonValue::array();
  JsonValue makespans = JsonValue::array();
  std::int64_t answered = 0;
  for (int c = 0; c < 2; ++c) {
    std::map<std::string, std::string> fresh;  // line -> payload
    for (std::size_t i = 0; i < mix.conn[c].size(); ++i) {
      const StreamRequest& req = mix.conn[c][i];
      const Answer& a = answers[c][i];
      report.attempt();
      const std::string tag =
          "conn " + std::to_string(c) + " request " + std::to_string(i);
      if (a.transport_error || !response_ok(a.response)) {
        report.fail(tag + ": " + a.response.substr(0, 200));
        continue;
      }
      ++answered;
      const int cached = response_cached(a.response);
      const std::string payload = response_payload(a.response);
      if (cached != (req.expect_hit ? 1 : 0)) {
        report.fail(tag + ": cached flag differs from the predicted class");
        continue;
      }
      if (!req.expect_hit) {
        cold_ms.push_back(a.ms);
        fresh.emplace(req.line, payload);
        if (req.line.find("\"mapper\": \"anneal\"") != std::string::npos) {
          makespans.push_back(payload_makespan(payload));
        }
        continue;
      }
      hit_ms.push_back(a.ms);
      const auto it = fresh.find(req.line);
      const JsonValue* preloaded = prep.find(req.line);
      const std::string* want =
          it != fresh.end() ? &it->second
                            : (preloaded != nullptr ? &preloaded->as_string()
                                                    : nullptr);
      if (want == nullptr || *want != payload) {
        report.fail(tag + ": hit payload differs from the fresh response");
      }
    }
  }

  // run.py pools the raw samples of every session of the run.
  report.note("answered", answered);
  report.note("session_s", session_s);
  report.note("cold_ms", std::move(cold_ms));
  report.note("hit_ms", std::move(hit_ms));
  report.note("makespan_ms", std::move(makespans));
  report.note("host_speed", speed);
  report.note("wakeup_factor", kNominalPingpongUs / pp);
  tracer.write(opt.run_dir + "/trace-serve-mix-session-" +
               std::to_string(opt.session) + ".json");
  report.write(opt.out);
  return 0;
}

// ---------------------------------------------------------- layer probe

/// Pairs each cold request's entry into handle() with the worker's
/// on_job_start callback, in admission order.
struct QueueWaitProbe {
  std::mutex mutex;
  std::deque<std::int64_t> entered;
  std::vector<double> wait_ms;

  void enter() {
    const std::lock_guard<std::mutex> lock(mutex);
    entered.push_back(now_ns());
  }
  void started() {
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mutex);
    if (entered.empty()) return;
    wait_ms.push_back(static_cast<double>(t - entered.front()) * 1e-6);
    entered.pop_front();
  }
};

struct ProbeSamples {
  std::vector<double> parse_us, key_us, lookup_us, hit_us, cold_ms;
  std::int64_t work = 0, hits = 0, rejected = 0;
};

/// In-process replay of one connection's stream through the service,
/// timing each layer of the read path from outside.
void replay_in_process(rdse::serve::ExplorationService& service,
                       rdse::serve::SolutionCache& mirror,
                       const std::vector<StreamRequest>& stream, int conn,
                       QueueWaitProbe& waits, Tracer& tracer,
                       ProbeSamples& out, Report& report) {
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const StreamRequest& req = stream[i];
    const std::int64_t id = (static_cast<std::int64_t>(conn) << 32) |
                            static_cast<std::int64_t>(i);
    report.attempt();
    std::int64_t t = now_ns();
    const rdse::serve::Request parsed =
        rdse::serve::parse_request(JsonValue::parse(req.line));
    std::int64_t u = now_ns();
    tracer.add("serve.parse", t, u, -1, id);
    out.parse_us.push_back(static_cast<double>(u - t) * 1e-3);
    t = now_ns();
    const std::string key = rdse::serve::canonical_key(parsed);
    u = now_ns();
    tracer.add("serve.key", t, u, -1, id);
    out.key_us.push_back(static_cast<double>(u - t) * 1e-3);
    if (req.expect_hit) {
      t = now_ns();
      const bool found = mirror.lookup(key).has_value();
      u = now_ns();
      tracer.add("serve.cache_lookup", t, u, -1, id);
      out.lookup_us.push_back(static_cast<double>(u - t) * 1e-3);
      if (!found) report.fail("probe: mirror cache misses a repeated key");
    } else {
      waits.enter();
    }
    t = now_ns();
    const auto handled = service.handle(req.line);
    u = now_ns();
    tracer.add("serve.handle", t, u, -1, id);
    ++out.work;
    if (handled.response.find("retry_after_ms") != std::string::npos) {
      ++out.rejected;
    }
    if (!handled.ok) {
      report.fail("probe: " + handled.response.substr(0, 200));
      continue;
    }
    const int cached = response_cached(handled.response);
    if (cached != (req.expect_hit ? 1 : 0)) {
      report.fail("probe: cached flag differs from the predicted class");
      continue;
    }
    if (req.expect_hit) {
      ++out.hits;
      out.hit_us.push_back(static_cast<double>(u - t) * 1e-3);
    } else {
      out.cold_ms.push_back(static_cast<double>(u - t) * 1e-6);
      mirror.insert(key, response_payload(handled.response));
    }
  }
}

double file_size(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n);
}

/// The serve layer probe: replays two connections' request streams through
/// an in-process ExplorationService (and its socket front end) and times the
/// read and write paths from outside. `preload` is sent first, untimed.
void serve_layer_probe(const std::vector<std::string>& preload,
                       const std::vector<StreamRequest>& conn_a,
                       const std::vector<StreamRequest>& conn_b,
                       const std::string& run_dir, Tracer& tracer,
                       Report& report) {
  namespace sv = rdse::serve;
  const std::string db = run_dir + "/probe.cachedb";
  const std::string journal = run_dir + "/probe.journal";
  const std::string socket = run_dir + "/probe.sock";
  for (const std::string& p : {db, journal, socket}) {
    std::filesystem::remove(p);
  }

  QueueWaitProbe waits;
  sv::ServerConfig config;
  config.socket_path = socket;
  config.service.workers = 2;
  config.service.cache_capacity = 1 << 20;
  config.service.persist_path = db;
  config.service.journal_path = journal;
  config.service.on_job_start = [&waits] { waits.started(); };
  sv::Server server(std::move(config));
  std::thread accept_loop([&server] { server.run(); });
  sv::ExplorationService& service = server.service();

  sv::SolutionCache mirror(1 << 20);
  for (const std::string& line : preload) {
    const auto handled = service.handle(line);
    if (!handled.ok) report.fail("probe preload: " + handled.response);
    const sv::Request parsed = sv::parse_request(JsonValue::parse(line));
    mirror.insert(sv::canonical_key(parsed),
                  response_payload(handled.response));
  }

  // Read and write path, both connections concurrently.
  ProbeSamples a;
  ProbeSamples b;
  Report report_b;
  const std::int64_t replay_start = now_ns();
  {
    std::thread other([&] {
      replay_in_process(service, mirror, conn_b, 1, waits, tracer, b,
                        report_b);
    });
    replay_in_process(service, mirror, conn_a, 0, waits, tracer, a, report);
    other.join();
  }
  const double replay_s = seconds_since(replay_start);
  report.merge(report_b);
  const auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(a.parse_us, b.parse_us);
  append(a.key_us, b.key_us);
  append(a.lookup_us, b.lookup_us);
  append(a.hit_us, b.hit_us);
  append(a.cold_ms, b.cold_ms);
  a.work += b.work;
  a.hits += b.hits;
  a.rejected += b.rejected;

  // Socket front end: the same hits over the socket and in process,
  // alternating, so both see the same cache.
  std::vector<double> socket_us;
  std::vector<double> inproc_us;
  {
    std::vector<std::string> hit_lines;
    for (const auto* stream : {&conn_a, &conn_b}) {
      for (const StreamRequest& r : *stream) {
        if (r.expect_hit && hit_lines.size() < 400) hit_lines.push_back(r.line);
      }
    }
    try {
      const std::unique_ptr<Connection> c = connect_when_ready(socket);
      for (const std::string& line : hit_lines) {
        std::int64_t t = now_ns();
        const std::string resp = c->round_trip(line);
        std::int64_t u = now_ns();
        tracer.add("serve.socket_hit", t, u);
        socket_us.push_back(static_cast<double>(u - t) * 1e-3);
        t = now_ns();
        const auto handled = service.handle(line);
        u = now_ns();
        inproc_us.push_back(static_cast<double>(u - t) * 1e-3);
        if (response_cached(resp) != 1 || !handled.ok) {
          report.fail("probe: socket hit not served from the cache");
        }
      }
    } catch (const std::exception& e) {
      report.fail(std::string("probe socket: ") + e.what());
    }
  }
  server.request_stop();
  accept_loop.join();

  // Persistence at the session's final size.
  std::vector<double> load_ms;
  std::vector<double> save_ms;
  std::vector<double> append_ms;
  sv::LoadedCacheDb loaded;
  for (int i = 0; i < kMedianReps; ++i) {
    const SpanGuard span(tracer, "serve.load_cache_db");
    const std::int64_t t = now_ns();
    loaded = sv::load_cache_db(db);
    load_ms.push_back(static_cast<double>(now_ns() - t) * 1e-6);
  }
  const std::string copy = run_dir + "/probe-copy.cachedb";
  for (int i = 0; i < kMedianReps; ++i) {
    const SpanGuard span(tracer, "serve.save_cache_db");
    const std::int64_t t = now_ns();
    if (!sv::save_cache_db(copy, loaded.entries)) {
      report.fail("probe: save_cache_db failed");
    }
    save_ms.push_back(static_cast<double>(now_ns() - t) * 1e-6);
  }
  {
    const std::string jpath = run_dir + "/probe-append.journal";
    std::filesystem::remove(jpath);
    sv::WorkJournal j(jpath);
    const std::string key = conn_a.empty() ? "{}" : conn_a.front().line;
    for (int i = 0; i < kMedianReps; ++i) {
      const SpanGuard span(tracer, "serve.journal_append");
      const std::int64_t t = now_ns();
      if (!j.append("accepted", key)) report.fail("probe: journal append");
      append_ms.push_back(static_cast<double>(now_ns() - t) * 1e-6);
    }
  }

  report.set("serve.parse_us", median(a.parse_us), "us",
             static_cast<std::int64_t>(a.parse_us.size()));
  report.set("serve.key_us", median(a.key_us), "us",
             static_cast<std::int64_t>(a.key_us.size()));
  report.set("serve.cache_lookup_us", median(a.lookup_us), "us",
             static_cast<std::int64_t>(a.lookup_us.size()));
  report.set("serve.handle_hit_us", median(a.hit_us), "us",
             static_cast<std::int64_t>(a.hit_us.size()));
  report.set("serve.handle_cold_ms", median(a.cold_ms), "ms",
             static_cast<std::int64_t>(a.cold_ms.size()));
  report.set("serve.queue_wait_ms", median(waits.wait_ms), "ms",
             static_cast<std::int64_t>(waits.wait_ms.size()));
  report.set("serve.socket_hit_us", median(socket_us), "us",
             static_cast<std::int64_t>(socket_us.size()));
  report.set("serve.server_overhead_us",
             median(socket_us) - median(inproc_us), "us",
             static_cast<std::int64_t>(socket_us.size()));
  report.set("serve.persist_save_ms", median(save_ms), "ms",
             static_cast<std::int64_t>(save_ms.size()));
  report.set("serve.persist_bytes", file_size(db), "bytes");
  report.set("serve.journal_append_ms", median(append_ms), "ms",
             static_cast<std::int64_t>(append_ms.size()));
  report.set("serve.load_ms", median(load_ms), "ms",
             static_cast<std::int64_t>(load_ms.size()));
  report.set("serve.requests_per_s",
             ratio(static_cast<double>(a.work), replay_s), "1/s", a.work);
  report.set("serve.cache_hit_rate",
             ratio(static_cast<double>(a.hits), static_cast<double>(a.work)),
             "ratio", a.work);
  report.set("serve.rejected", static_cast<double>(a.rejected), "count",
             a.work);
}

}  // namespace

int run_serve_client(const RunOptions& opt) {
  const ServeMix mix = make_serve_mix(opt.seed, opt.session);
  if (opt.phase == "prep") return run_prep(opt, mix);
  if (opt.phase == "session") return run_session(opt, mix);
  if (opt.phase == "probe") {
    Report report;
    Tracer tracer(true);
    serve_layer_probe(mix.preload, mix.conn[0], mix.conn[1], opt.run_dir,
                      tracer, report);
    tracer.write(opt.run_dir + "/trace-serve-mix-probe.json");
    report.write(opt.out);
    return 0;
  }
  throw std::runtime_error("unknown serve-client phase '" + opt.phase + "'");
}

void explore_serve_probe(const std::string& model, const std::string& run_dir,
                         Tracer& tracer, Report& report) {
  std::vector<StreamRequest> conn[2];
  for (int c = 0; c < 2; ++c) {
    std::vector<std::string> fresh;
    for (int m = 0; m < 2; ++m) {
      for (const int clbs : {1000, 3000}) {
        fresh.push_back(det_request(model, kDeterministicMappers[2 * c + m],
                                    clbs));
      }
    }
    for (const std::string& line : fresh) conn[c].push_back({line, false});
    for (int rep = 0; rep < 8; ++rep) {
      for (const std::string& line : fresh) conn[c].push_back({line, true});
    }
  }
  serve_layer_probe({}, conn[0], conn[1], run_dir, tracer, report);
}

}  // namespace perfbench
