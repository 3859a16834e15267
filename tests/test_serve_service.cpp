/// Tests for the exploration service: cache-hit bit-identity, counters,
/// bounded-queue backpressure (exercised deterministically via the
/// on_job_start hook), concurrent request handling and drain semantics.
/// This suite runs under TSan in CI.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"
#include "util/json.hpp"

namespace rdse::serve {
namespace {

/// A small, fast explore request; `seed` varies the cache key.
std::string explore_line(int seed) {
  return R"({"op": "explore", "clbs": 400, "iters": 600, "warmup": 100, )"
         R"("seed": )" +
         std::to_string(seed) + "}";
}

ServiceConfig fast_config() {
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 8;
  config.cache_capacity = 16;
  return config;
}

/// Rewrites "cached": false -> true; the only byte-level difference a
/// cache hit is allowed to have from the fresh response.
std::string as_cached(std::string response) {
  const std::size_t at = response.find(R"("cached": false)");
  EXPECT_NE(at, std::string::npos);
  response.replace(at, 15, R"("cached": true)");
  return response;
}

TEST(ExplorationService, RepeatedRequestIsServedFromTheCache) {
  ExplorationService service(fast_config());
  const auto first = service.handle(explore_line(1));
  ASSERT_TRUE(first.ok) << first.response;
  const auto second = service.handle(explore_line(1));
  ASSERT_TRUE(second.ok) << second.response;

  // Bit-identical modulo the cached flag.
  EXPECT_EQ(as_cached(first.response), second.response);

  // The counters prove the second answer never touched the annealer.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.requests_total, 2u);
}

TEST(ExplorationService, CachedPayloadIsBitIdenticalToAFreshService) {
  // The same request against an independent cache-disabled service with
  // another run_threads must produce the same payload bytes: responses are
  // pure functions of the request (no wall-clock or thread-count fields).
  // The multi-run explore and the sweep shard their runs over run_threads.
  ExplorationService cached(fast_config());
  ServiceConfig uncached_config = fast_config();
  uncached_config.cache_capacity = 0;
  uncached_config.run_threads = 3;
  ExplorationService uncached(uncached_config);

  const std::string lines[] = {
      explore_line(7),
      R"({"op": "explore", "clbs": 400, "iters": 600, "warmup": 100, )"
      R"("runs": 2})",
      R"({"op": "sweep", "sizes": [400, 800], "runs": 2, "iters": 600, )"
      R"("warmup": 100})"};
  for (const std::string& line : lines) {
    const auto a = cached.handle(line);
    const auto b = cached.handle(line);  // cache hit
    const auto c = uncached.handle(line);
    ASSERT_TRUE(a.ok && b.ok && c.ok) << line;
    EXPECT_EQ(as_cached(a.response), b.response) << line;
    EXPECT_EQ(a.response, c.response) << line;
  }
  EXPECT_EQ(cached.stats().cache.hits, 3u);
  EXPECT_EQ(uncached.stats().cache.hits, 0u);
}

TEST(ExplorationService, EquivalentRequestsShareOneCacheEntry) {
  ExplorationService service(fast_config());
  const auto minimal = service.handle(
      R"({"op": "explore", "clbs": 400, "iters": 600, "warmup": 100})");
  // Same work spelled out with defaults explicit and fields reordered.
  const auto spelled = service.handle(
      R"({"seed": 1, "runs": 1, "model": "motion", "iters": 600,
          "op": "explore", "warmup": 100, "clbs": 400,
          "schedule": "modified-lam"})");
  ASSERT_TRUE(minimal.ok && spelled.ok);
  EXPECT_EQ(as_cached(minimal.response), spelled.response);
  EXPECT_EQ(service.stats().cache.hits, 1u);
}

TEST(ExplorationService, MalformedAndOversizedRequestsAreErrors) {
  ServiceConfig config = fast_config();
  config.max_iterations = 1'000;
  ExplorationService service(config);

  const auto garbage = service.handle("not json at all");
  EXPECT_FALSE(garbage.ok);
  EXPECT_NE(garbage.response.find("\"ok\": false"), std::string::npos);

  const auto unknown = service.handle(R"({"op": "explode"})");
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.response.find("unknown op"), std::string::npos);

  const auto oversized = service.handle(explore_line(1));  // 600+100 <= 1000
  EXPECT_TRUE(oversized.ok);
  const auto too_big = service.handle(
      R"({"op": "explore", "iters": 5000, "warmup": 100})");
  EXPECT_FALSE(too_big.ok);
  EXPECT_NE(too_big.response.find("iteration cap"), std::string::npos);

  // The cap bounds the whole request: every run fits the per-run budget
  // (600 + 100), but runs, grid points and batch probes multiply it past
  // 1000.
  const std::string multiplied_lines[] = {
      R"({"op": "explore", "iters": 600, "warmup": 100, "runs": 2})",
      R"({"op": "sweep", "sizes": [400, 800], "runs": 1, "iters": 600, )"
      R"("warmup": 100})",
      R"({"op": "explore", "iters": 600, "warmup": 100, "batch": 2})"};
  for (const std::string& line : multiplied_lines) {
    const auto multiplied = service.handle(line);
    EXPECT_FALSE(multiplied.ok) << line;
    EXPECT_NE(multiplied.response.find("iteration cap"), std::string::npos)
        << multiplied.response;
  }

  // 8192 runs x 1024 probes x 2^41 iterations is 2^64: a product that
  // wraps to 0 would admit it, and the deadline keeps that failure short.
  const auto wrapped = service.handle(
      R"({"op": "explore", "runs": 8192, "batch": 1024, )"
      R"("iters": 1099511627776, "warmup": 1099511627776, "timeout_ms": 1})");
  EXPECT_FALSE(wrapped.ok);
  EXPECT_NE(wrapped.response.find("iteration cap"), std::string::npos)
      << wrapped.response;

  EXPECT_EQ(service.stats().errors, 7u);
  EXPECT_EQ(service.stats().cache.entries, 1u);
}

TEST(ExplorationService, WorkCapChargesOnlyWhatRuns) {
  // A run costs what its cache key keeps: 1 for a seed-independent mapper,
  // iters for random, batch x (iters + warmup) for the annealer.
  ServiceConfig config = fast_config();
  config.max_iterations = 1'000;
  ExplorationService service(config);

  const auto heft =
      service.handle(R"({"op": "explore", "mapper": "heft", "runs": 100})");
  ASSERT_TRUE(heft.ok) << heft.response;
  // Every heft run ends at one makespan, so the batch reads exactly it and
  // a spread of exactly 0 (a plain sum-based mean read 64.98033399999991
  // with a spread of 8.6e-14).
  const JsonValue aggregate =
      JsonValue::parse(heft.response).at("result").at("aggregate");
  EXPECT_EQ(aggregate.at("mean_makespan_ms").as_number(), 64.980334);
  EXPECT_EQ(aggregate.at("best_makespan_ms").as_number(), 64.980334);
  EXPECT_EQ(aggregate.at("stddev_makespan_ms").as_number(), 0.0);
  // Its same-key spelling is the same entry, so both doors agree.
  const auto respelled = service.handle(
      R"({"op": "explore", "mapper": "heft", "runs": 100, "iters": 1, )"
      R"("warmup": 0})");
  EXPECT_EQ(as_cached(heft.response), respelled.response);

  const auto random = service.handle(
      R"({"op": "explore", "mapper": "random", "iters": 600, )"
      R"("warmup": 1099511627776})");
  EXPECT_TRUE(random.ok) << random.response;

  const char* over[] = {
      R"({"op": "explore", "mapper": "random", "iters": 1001})",
      R"({"op": "explore", "mapper": "ga", "iters": 600, "runs": 2})",
      R"({"op": "explore", "mapper": "heft", "runs": 1001})"};
  for (const char* line : over) {
    const auto rejected = service.handle(line);
    EXPECT_FALSE(rejected.ok) << line;
    EXPECT_NE(rejected.response.find("iteration cap (1000)"),
              std::string::npos)
        << rejected.response;
  }
}

TEST(ExplorationService, StatusAndPingAnswerInline) {
  ExplorationService service(fast_config());
  const auto ping = service.handle(R"({"op": "ping"})");
  EXPECT_TRUE(ping.ok);
  EXPECT_EQ(ping.op, RequestOp::kPing);

  const auto status = service.handle(R"({"op": "status"})");
  ASSERT_TRUE(status.ok);
  const JsonValue doc = JsonValue::parse(status.response);
  EXPECT_EQ(doc.at("result").at("queue").at("capacity").as_int(), 8);
  EXPECT_EQ(doc.at("result").at("cache").at("capacity").as_int(), 16);
  EXPECT_EQ(doc.at("result").at("requests").at("total").as_int(), 2);
}

TEST(ExplorationService, QueueFullRejectsWithBackpressureNotDrop) {
  // Deterministic queue-full: one worker held inside a job via the
  // on_job_start hook, one request waiting, so the third is rejected.
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.cache_capacity = 16;
  config.retry_after_ms = 125;
  config.on_job_start = [released] { released.wait(); };
  ExplorationService service(config);

  auto run = [&service](int seed) { return service.handle(explore_line(seed)); };
  std::future<ExplorationService::Handled> first =
      std::async(std::launch::async, run, 1);
  // Wait until the worker is actually inside the job...
  while (service.stats().in_flight == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::future<ExplorationService::Handled> second =
      std::async(std::launch::async, run, 2);
  // ...and the second request is parked in the admission queue.
  while (service.stats().queue_depth == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The queue is now full: the third request must be rejected immediately
  // with the retry hint — not dropped, not blocked.
  const auto rejected = service.handle(explore_line(3));
  EXPECT_FALSE(rejected.ok);
  const JsonValue doc = JsonValue::parse(rejected.response);
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_NE(doc.at("error").as_string().find("queue is full"),
            std::string::npos);
  EXPECT_EQ(doc.at("retry_after_ms").as_int(), 125);

  release.set_value();
  const auto a = first.get();
  const auto b = second.get();
  EXPECT_TRUE(a.ok) << a.response;
  EXPECT_TRUE(b.ok) << b.response;

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(ExplorationService, ConcurrentRequestsAllComplete) {
  // Many connection threads hammering the service at once; a mix of
  // repeated (cacheable) and distinct work. Runs under TSan in CI.
  ExplorationService service(fast_config());
  // Warm the three distinct requests serially first: concurrent identical
  // misses would otherwise race to execute (there is no single-flight
  // coalescing) and make the hit/miss split nondeterministic.
  for (int seed = 0; seed < 3; ++seed) {
    ASSERT_TRUE(service.handle(explore_line(seed)).ok);
  }
  constexpr int kThreads = 6;
  std::vector<std::future<ExplorationService::Handled>> futures;
  futures.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    futures.push_back(std::async(std::launch::async, [&service, t] {
      return service.handle(explore_line(t % 3));
    }));
  }
  for (auto& f : futures) {
    const auto handled = f.get();
    EXPECT_TRUE(handled.ok) << handled.response;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kThreads) + 3u);
  EXPECT_EQ(stats.cache.misses, 3u);
  EXPECT_EQ(stats.cache.hits, static_cast<std::uint64_t>(kThreads));
}

TEST(ExplorationService, DrainRejectsNewWorkButAnswersStatus) {
  ExplorationService service(fast_config());
  ASSERT_TRUE(service.handle(explore_line(1)).ok);
  service.begin_drain();

  const auto work = service.handle(explore_line(2));
  EXPECT_FALSE(work.ok);
  EXPECT_NE(work.response.find("shutting down"), std::string::npos);

  // Cache hits and status still answer during the drain window.
  EXPECT_TRUE(service.handle(explore_line(1)).ok);
  EXPECT_TRUE(service.handle(R"({"op": "status"})").ok);
}

}  // namespace
}  // namespace rdse::serve
