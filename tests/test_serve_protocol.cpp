/// Tests for the serve wire protocol: strict request validation, canonical
/// normalization (defaults explicit, irrelevant fields dropped), the one
/// request-to-sweep planner and the response envelopes.

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>

#include "serve/protocol.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"

namespace rdse::serve {
namespace {

Request parse(const std::string& text) {
  return parse_request(JsonValue::parse(text));
}

TEST(ServeProtocol, ExploreDefaultsMatchTheCli) {
  const Request r = parse(R"({"op": "explore"})");
  EXPECT_EQ(r.op, RequestOp::kExplore);
  EXPECT_EQ(r.model, "motion");
  EXPECT_EQ(r.clbs, 2'000);
  EXPECT_EQ(r.runs, 1);
  EXPECT_EQ(r.seed, 1u);
  EXPECT_EQ(r.iterations, 20'000);
  EXPECT_EQ(r.warmup, 1'200);
  EXPECT_EQ(r.schedule, ScheduleKind::kModifiedLam);
}

TEST(ServeProtocol, SweepDefaultsMatchTheCli) {
  const Request r = parse(R"({"op": "sweep"})");
  EXPECT_EQ(r.op, RequestOp::kSweep);
  EXPECT_EQ(r.runs, 5);
  EXPECT_EQ(r.iterations, 15'000);
  EXPECT_EQ(r.axis, "device-size");
  EXPECT_TRUE(r.sizes.empty());  // empty = the Fig. 3 default grid
}

TEST(ServeProtocol, ExplicitFieldsParse) {
  const Request r = parse(
      R"({"op": "explore", "clbs": 500, "runs": 3, "seed": 42,
          "iters": 900, "warmup": 100, "schedule": "greedy"})");
  EXPECT_EQ(r.clbs, 500);
  EXPECT_EQ(r.runs, 3);
  EXPECT_EQ(r.seed, 42u);
  EXPECT_EQ(r.iterations, 900);
  EXPECT_EQ(r.warmup, 100);
  EXPECT_EQ(r.schedule, ScheduleKind::kGreedy);
}

TEST(ServeProtocol, MalformedRequestsAreRejected) {
  const char* bad[] = {
      R"([1, 2])",                                  // not an object
      R"({})",                                      // missing op
      R"({"op": 3})",                               // op not a string
      R"({"op": "frobnicate"})",                    // unknown op
      R"({"op": "explore", "bogus": 1})",           // unknown field
      R"({"op": "explore", "sizes": [400]})",       // sweep-only field
      R"({"op": "ping", "clbs": 100})",             // field on a plain op
      R"({"op": "explore", "clbs": "big"})",        // wrong type
      R"({"op": "explore", "clbs": 0})",            // below range
      R"({"op": "explore", "clbs": 10.5})",         // not an integer
      R"({"op": "explore", "runs": 0})",            // below range
      R"({"op": "explore", "seed": -1})",           // negative seed
      R"({"op": "explore", "schedule": "warp"})",   // unknown schedule
      R"({"op": "sweep", "axis": "voltage"})",      // unknown axis
      R"({"op": "sweep", "sizes": []})",            // empty grid
      R"({"op": "sweep", "sizes": [400, 0]})",      // size below 1
      R"({"op": "sweep", "sizes": [400, "x"]})",    // non-numeric size
      R"({"op": "sweep", "schedules": []})",        // empty schedule list
      R"({"op": "sweep", "schedules": ["warp"]})",  // unknown schedule
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)parse(text), Error) << "input: " << text;
  }
}

TEST(ServeProtocol, SeedsAreExactAsJsonNumbers) {
  // 2^53 - 1 is the last seed a double holds apart from its neighbours.
  EXPECT_EQ(parse(R"({"op": "explore", "seed": 9007199254740991})").seed,
            9'007'199'254'740'991u);
  EXPECT_EQ(parse(R"({"op": "sweep", "seed": 0})").seed, 0u);
  // 2^53 and 2^53 + 1 parse to the same double; both are rejected.
  const char* over[] = {
      R"({"op": "explore", "seed": 9007199254740992})",
      R"({"op": "explore", "seed": 9007199254740993})",
      R"({"op": "sweep", "seed": 9007199254740992})",
  };
  for (const char* text : over) {
    EXPECT_THROW((void)parse(text), Error) << "input: " << text;
  }
}

TEST(ServeProtocol, RejectionsNameTheFieldAndItsRange) {
  // The same text reads right from serve and after an `rdse` command.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"op": "explore", "clbs": 0})",
       "'clbs' must be an integer in [1, 1000000], got 0"},
      {R"({"op": "explore", "runs": 1.5})",
       "'runs' must be an integer in [1, 100000], got 1.5"},
      {R"({"op": "explore", "iters": "many"})",
       "'iters' must be an integer in [1, 1099511627776], got \"many\""},
      {R"({"op": "explore", "batch": 1025})",
       "'batch' must be an integer in [1, 1024], got 1025"},
      {R"({"op": "sweep", "sizes": [400, 0]})",
       "'sizes' must hold integers in [1, 1000000], got 0"},
      {R"({"op": "sweep", "sizes": []})", "'sizes' must be a non-empty list"},
  };
  for (const auto& [text, message] : cases) {
    try {
      (void)parse(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), message) << "input: " << text;
    }
  }
}

TEST(ServeProtocol, PlanIsAOnePointMapperSweepOrTheAxisGrid) {
  const ModelSpec model = load_model_spec("motion");
  const Request ga = parse(
      R"({"op": "explore", "mapper": "ga", "clbs": 700, "runs": 3, )"
      R"("seed": 5, "iters": 900, "warmup": 40, "batch": 2, )"
      R"("schedule": "greedy"})");
  const SweepSpec explore = plan_request(ga, model);
  EXPECT_EQ(explore.name, "mapper-bench");
  EXPECT_EQ(explore.runs_per_point, 3);
  EXPECT_EQ(explore.deadline, model.app.deadline);
  ASSERT_EQ(explore.points.size(), 1u);
  const SweepPoint& point = explore.points.front();
  EXPECT_EQ(point.mapper, "ga");
  EXPECT_EQ(point.label, "");
  EXPECT_EQ(point.x, 700.0);
  EXPECT_EQ(point.config.seed, 5u);
  EXPECT_EQ(point.config.iterations, 900);
  EXPECT_EQ(point.config.warmup_iterations, 40);
  EXPECT_EQ(point.config.batch, 2);
  EXPECT_EQ(point.config.schedule, ScheduleKind::kGreedy);
  EXPECT_FALSE(point.config.record_trace);

  const SweepSpec sizes = plan_request(parse(R"({"op": "sweep"})"), model);
  EXPECT_EQ(sizes.name, "device-size");
  EXPECT_EQ(sizes.runs_per_point, 5);
  ASSERT_EQ(sizes.points.size(), std::size(kFig3DeviceSizes));
  EXPECT_EQ(sizes.points.front().label, "100 CLBs");
  EXPECT_EQ(sizes.points.front().config.iterations, 15'000);

  const CancelToken token;
  const Request greedy = parse(
      R"({"op": "sweep", "axis": "schedule", "schedules": ["greedy"], )"
      R"("clbs": 900})");
  const SweepSpec schedules = plan_request(greedy, model, &token);
  EXPECT_EQ(schedules.name, "schedule");
  ASSERT_EQ(schedules.points.size(), 1u);
  EXPECT_EQ(schedules.points.front().config.schedule, ScheduleKind::kGreedy);
  EXPECT_EQ(schedules.points.front().config.cancel, &token);

  EXPECT_THROW((void)plan_request(parse(R"({"op": "ping"})"), model), Error);
}

TEST(ServeProtocol, NormalizationMakesDefaultsExplicit) {
  // A minimal request and its fully spelled-out twin are the same work, so
  // they must produce the same cache key.
  const std::string minimal = canonical_key(parse(R"({"op": "explore"})"));
  const std::string spelled = canonical_key(parse(
      R"({"op": "explore", "model": "motion", "clbs": 2000, "runs": 1,
          "seed": 1, "iters": 20000, "warmup": 1200,
          "schedule": "modified-lam"})"));
  EXPECT_EQ(minimal, spelled);
  // Field order in the request document is irrelevant too.
  const std::string reordered = canonical_key(parse(
      R"({"seed": 1, "op": "explore", "clbs": 2000})"));
  EXPECT_EQ(minimal, reordered);
}

TEST(ServeProtocol, NormalizationDropsIrrelevantFields) {
  // A device-size sweep ignores "clbs" (each point sets its own size):
  // requests differing only there are identical work.
  const std::string a = canonical_key(
      parse(R"({"op": "sweep", "axis": "device-size", "clbs": 500})"));
  const std::string b = canonical_key(
      parse(R"({"op": "sweep", "axis": "device-size", "clbs": 9000})"));
  EXPECT_EQ(a, b);
  // But on the schedule axis the device size is real work state.
  const std::string c = canonical_key(
      parse(R"({"op": "sweep", "axis": "schedule", "clbs": 500})"));
  const std::string d = canonical_key(
      parse(R"({"op": "sweep", "axis": "schedule", "clbs": 9000})"));
  EXPECT_NE(c, d);
}

TEST(ServeProtocol, DefaultGridsAreExplicitInTheKey)  {
  // Omitting "sizes" and spelling out the Fig. 3 grid are the same sweep.
  const std::string omitted =
      canonical_key(parse(R"({"op": "sweep", "axis": "device-size"})"));
  const std::string spelled = canonical_key(parse(
      R"({"op": "sweep", "axis": "device-size",
          "sizes": [100, 200, 400, 600, 800, 1000, 1500, 2000, 3000,
                    4000, 5000, 7000, 10000]})"));
  EXPECT_EQ(omitted, spelled);
  // A different grid is different work.
  const std::string other = canonical_key(parse(
      R"({"op": "sweep", "axis": "device-size", "sizes": [400, 800]})"));
  EXPECT_NE(omitted, other);
}

TEST(ServeProtocol, DistinctWorkGetsDistinctKeys) {
  const std::string base = canonical_key(parse(R"({"op": "explore"})"));
  const char* variants[] = {
      R"({"op": "explore", "seed": 2})",
      R"({"op": "explore", "clbs": 400})",
      R"({"op": "explore", "iters": 19999})",
      R"({"op": "explore", "schedule": "greedy"})",
      R"({"op": "sweep"})",
  };
  for (const char* text : variants) {
    EXPECT_NE(canonical_key(parse(text)), base) << "input: " << text;
  }
}

TEST(ServeProtocol, ExploreMapperDefaultsToAnneal) {
  EXPECT_EQ(parse(R"({"op": "explore"})").mapper, "anneal");
  EXPECT_EQ(parse(R"({"op": "explore", "mapper": "heft"})").mapper, "heft");
}

TEST(ServeProtocol, UnknownMapperAndSweepMapperAreRejected) {
  EXPECT_THROW((void)parse(R"({"op": "explore", "mapper": "nope"})"), Error);
  // "mapper" is an explore-only field; a sweep request must not carry it.
  EXPECT_THROW((void)parse(R"({"op": "sweep", "mapper": "heft"})"), Error);
}

TEST(ServeProtocol, ModelNamesCanonicalizeInTheKey) {
  // The alias and the canonical name are the same work, as are padded and
  // plain synthetic sizes; unknown models fail at the front door.
  const std::string canonical =
      canonical_key(parse(R"({"op": "explore", "model": "motion"})"));
  EXPECT_EQ(canonical_key(
                parse(R"({"op": "explore", "model": "motion_detection"})")),
            canonical);
  EXPECT_EQ(
      canonical_key(parse(R"({"op": "explore", "model": "synthetic:0040"})")),
      canonical_key(parse(R"({"op": "explore", "model": "synthetic:40"})")));
  EXPECT_THROW((void)parse(R"({"op": "explore", "model": "warp"})"), Error);
  EXPECT_THROW((void)parse(R"({"op": "explore", "model": "synthetic:1"})"),
               Error);
}

TEST(ServeProtocol, MapperKeyKeepsOnlyConsumedKnobs) {
  // Seed-independent mappers: (model, mapper, runs, clbs) is the whole
  // key, so any seed/budget/schedule spelling hits the same cache entry.
  const std::string heft =
      canonical_key(parse(R"({"op": "explore", "mapper": "heft"})"));
  EXPECT_EQ(canonical_key(parse(
                R"({"op": "explore", "mapper": "heft", "seed": 9,
                    "iters": 5, "warmup": 0, "schedule": "greedy"})")),
            heft);
  EXPECT_NE(canonical_key(
                parse(R"({"op": "explore", "mapper": "heft", "clbs": 400})")),
            heft);
  // Stochastic non-annealers keep seed and budget but drop the annealer's
  // warmup/schedule knobs.
  const std::string ga =
      canonical_key(parse(R"({"op": "explore", "mapper": "ga"})"));
  EXPECT_EQ(canonical_key(parse(
                R"({"op": "explore", "mapper": "ga", "warmup": 7,
                    "schedule": "greedy"})")),
            ga);
  EXPECT_NE(
      canonical_key(parse(R"({"op": "explore", "mapper": "ga", "seed": 2})")),
      ga);
  // Distinct mappers are distinct work even with identical knobs.
  EXPECT_NE(heft, ga);
  EXPECT_NE(ga, canonical_key(parse(R"({"op": "explore"})")));
}

TEST(ServeProtocol, TimeoutParsesOnWorkOpsAndStaysOutOfTheKey) {
  // The deadline is an execution knob on both work ops...
  EXPECT_EQ(parse(R"({"op": "explore", "timeout_ms": 1500})").timeout_ms,
            1'500);
  EXPECT_EQ(parse(R"({"op": "sweep", "timeout_ms": 1500})").timeout_ms,
            1'500);
  EXPECT_EQ(parse(R"({"op": "explore"})").timeout_ms, 0);  // 0 = none
  // ...but never part of the work's identity: the same run with and
  // without a deadline must hit the same cache entry.
  EXPECT_EQ(canonical_key(parse(R"({"op": "explore", "timeout_ms": 9})")),
            canonical_key(parse(R"({"op": "explore"})")));
  EXPECT_EQ(canonical_key(parse(R"({"op": "sweep", "timeout_ms": 9})")),
            canonical_key(parse(R"({"op": "sweep"})")));
}

TEST(ServeProtocol, BadTimeoutsAreRejected) {
  const char* bad[] = {
      R"({"op": "explore", "timeout_ms": -1})",        // negative
      R"({"op": "explore", "timeout_ms": 86400001})",  // beyond 24 h
      R"({"op": "explore", "timeout_ms": 1.5})",       // not an integer
      R"({"op": "explore", "timeout_ms": "1s"})",      // wrong type
      R"({"op": "ping", "timeout_ms": 5})",            // not a work op
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)parse(text), Error) << "input: " << text;
  }
}

TEST(ServeProtocol, BackoffScheduleIsDeterministic) {
  // Plain doubling from the base...
  EXPECT_EQ(backoff_delay_ms(0, 100, 10'000, -1), 100);
  EXPECT_EQ(backoff_delay_ms(1, 100, 10'000, -1), 200);
  EXPECT_EQ(backoff_delay_ms(2, 100, 10'000, -1), 400);
  EXPECT_EQ(backoff_delay_ms(3, 100, 10'000, -1), 800);
  // ...clamped at the cap, including far past it (no overflow).
  EXPECT_EQ(backoff_delay_ms(7, 100, 10'000, -1), 10'000);
  EXPECT_EQ(backoff_delay_ms(500, 100, 10'000, -1), 10'000);
  // Attempt counts at and past the 63-doubling mark of a naive shift: the
  // schedule must saturate at the cap, never wrap to a negative or tiny
  // delay (a signed 64-bit shift overflows at attempt 57 for base 100).
  for (const int attempt : {56, 57, 62, 63, 64, 100, 1'000, 1'000'000}) {
    EXPECT_EQ(backoff_delay_ms(attempt, 100, 10'000, -1), 10'000)
        << "attempt " << attempt;
    EXPECT_EQ(backoff_delay_ms(attempt, 1, 10'000, -1), 10'000)
        << "attempt " << attempt;
  }
  // A zero base never backs off on its own.
  EXPECT_EQ(backoff_delay_ms(5, 0, 10'000, -1), 0);
  EXPECT_EQ(backoff_delay_ms(1'000'000, 0, 10'000, -1), 0);
}

TEST(ServeProtocol, BackoffHonoursTheServerHint) {
  // The server's retry_after_ms is a floor: never retry sooner than asked.
  EXPECT_EQ(backoff_delay_ms(0, 100, 10'000, 250), 250);
  EXPECT_EQ(backoff_delay_ms(2, 100, 10'000, 250), 400);  // schedule wins
  // The hint may exceed the client's own cap — the server knows best.
  EXPECT_EQ(backoff_delay_ms(0, 100, 10'000, 60'000), 60'000);
  // Absent (negative) hints are ignored.
  EXPECT_EQ(backoff_delay_ms(1, 100, 10'000, -1), 200);
}

TEST(ServeProtocol, ErrorResponsesCarryTheBackpressureHint) {
  EXPECT_EQ(make_error_response("boom"),
            R"({"ok": false, "error": "boom"})");
  EXPECT_EQ(make_error_response("queue full", 250),
            R"({"ok": false, "error": "queue full", "retry_after_ms": 250})");
}

TEST(ServeProtocol, ResultEnvelopeEmbedsThePayloadVerbatim) {
  const std::string payload = R"({"makespan_ms": 26.800559})";
  const std::string fresh =
      make_result_response(RequestOp::kExplore, false, "abc123", payload);
  EXPECT_EQ(fresh, R"({"ok": true, "op": "explore", "cached": false, )"
                   R"("key": "abc123", "result": {"makespan_ms": )"
                   R"(26.800559}})");
  // The cached envelope differs from the fresh one only in the flag.
  std::string expected = fresh;
  const std::size_t at = expected.find("\"cached\": false");
  expected.replace(at, 15, "\"cached\": true");
  EXPECT_EQ(
      make_result_response(RequestOp::kExplore, true, "abc123", payload),
      expected);
  // The envelope parses back as JSON with the payload intact.
  const JsonValue doc = JsonValue::parse(fresh);
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_DOUBLE_EQ(doc.at("result").at("makespan_ms").as_number(),
                   26.800559);
}

}  // namespace
}  // namespace rdse::serve
