/// Fault-injection suite for the fault-tolerant serve stack: crash-safe
/// cache persistence (rdse.cachedb.v2: one record appended per fresh
/// result, compaction from the live cache), the work journal, the
/// util/faultfs write/fsync/rename shim, request deadlines with
/// cooperative cancellation, and drain semantics. Every injected storage
/// fault must degrade to "cache miss, correct answer" — never a crash,
/// never a wrong payload. Runs under ASan and TSan in CI (the `test_serve`
/// prefix selects it for the TSan job).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/journal.hpp"
#include "serve/persist.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/faultfs.hpp"
#include "util/json.hpp"

namespace rdse::serve {
namespace {

using Entries = std::vector<std::pair<std::string, std::string>>;

std::string db_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  ::unlink(path.c_str());
  ::unlink((path + ".tmp").c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

/// Every faultfs test disarms on entry and exit so a failing test cannot
/// poison its neighbours.
class FaultFsTest : public ::testing::Test {
 protected:
  void SetUp() override { faultfs::clear(); }
  void TearDown() override { faultfs::clear(); }
};

// ------------------------------------------------------------ persistence

TEST(ServePersist, SaveAndLoadRoundTripInWriteOrder) {
  const std::string path = db_path("cachedb-roundtrip.json");
  const Entries entries = {{"key-a", "payload-a"},
                           {"key-b", "payload {\"nested\": [1, 2]}"},
                           {"key-c", ""}};
  ASSERT_TRUE(save_cache_db(path, entries));
  const LoadedCacheDb db = load_cache_db(path);
  EXPECT_EQ(db.skipped, 0u);
  EXPECT_EQ(db.superseded, 0u);
  EXPECT_EQ(db.entries, entries);
  const std::string text = read_file(path);
  EXPECT_EQ(text.rfind("{\"format\": \"rdse.cachedb.v2\"}\n", 0), 0u)
      << text;
}

TEST(ServePersist, MissingFileLoadsEmpty) {
  const LoadedCacheDb db =
      load_cache_db(db_path("cachedb-never-written.json"));
  EXPECT_TRUE(db.entries.empty());
  EXPECT_EQ(db.skipped, 0u);
}

TEST(ServePersist, GarbageFileRecoversNothingButNeverThrows) {
  const std::string path = db_path("cachedb-garbage.json");
  write_file(path, "this is not json\n{\"nor\": \"a cachedb\"}\n\x01\x02\n");
  const LoadedCacheDb db = load_cache_db(path);
  EXPECT_TRUE(db.entries.empty());
  EXPECT_EQ(db.skipped, 3u);
}

TEST(ServePersist, ForeignFormatHeaderVoidsEveryLine) {
  const std::string path = db_path("cachedb-foreign.json");
  ASSERT_TRUE(save_cache_db(path, Entries{{"k", "p"}}));
  const std::string good = read_file(path);
  const std::size_t nl = good.find('\n');
  ASSERT_NE(nl, std::string::npos);
  // Same entry lines under another format version (here the retired v1,
  // which is not imported): not trustworthy.
  write_file(path,
             "{\"format\": \"rdse.cachedb.v1\"}" + good.substr(nl));
  const LoadedCacheDb db = load_cache_db(path);
  EXPECT_TRUE(db.entries.empty());
  EXPECT_EQ(db.skipped, 2u);  // header + the voided entry
}

TEST(ServePersist, TruncatedTailLosesOnlyTheCutLine) {
  const std::string path = db_path("cachedb-truncated.json");
  ASSERT_TRUE(save_cache_db(
      path, Entries{{"k1", "p1"}, {"k2", "p2"}, {"k3", "p3"}}));
  const std::string text = read_file(path);
  // Cut mid-way through the last entry line — the torn tail a crash or a
  // short write leaves behind.
  write_file(path, text.substr(0, text.size() - 10));
  const LoadedCacheDb db = load_cache_db(path);
  ASSERT_EQ(db.entries.size(), 2u);
  EXPECT_EQ(db.entries[0].first, "k1");
  EXPECT_EQ(db.entries[1].first, "k2");
  EXPECT_EQ(db.skipped, 1u);
}

TEST(ServePersist, TamperedPayloadFailsTheChecksum) {
  const std::string path = db_path("cachedb-tampered.json");
  ASSERT_TRUE(save_cache_db(path, Entries{{"k1", "honest payload"}}));
  std::string text = read_file(path);
  const std::size_t at = text.find("honest");
  ASSERT_NE(at, std::string::npos);
  text[at] = 'H';  // one flipped bit of payload
  write_file(path, text);
  const LoadedCacheDb db = load_cache_db(path);
  EXPECT_TRUE(db.entries.empty());
  EXPECT_EQ(db.skipped, 1u);
}

TEST(ServePersist, DuplicateKeyKeepsTheLatestRecord) {
  // The file is chronological, so when it carries the same key twice (a
  // result appended again after a compaction, or two concurrent misses),
  // the LAST record is the fresh payload and sets the key's recency; the
  // earlier one is superseded, not allowed to shadow it.
  const std::string path = db_path("cachedb-dupkey.json");
  ASSERT_TRUE(save_cache_db(path, Entries{{"hot-key", "stale-payload"},
                                          {"other", "payload"},
                                          {"hot-key", "fresh-payload"}}));
  const LoadedCacheDb db = load_cache_db(path);
  ASSERT_EQ(db.entries.size(), 2u);
  EXPECT_EQ(db.entries[0].first, "other");
  EXPECT_EQ(db.entries[1],
            (std::pair<std::string, std::string>{"hot-key", "fresh-payload"}));
  EXPECT_EQ(db.skipped, 0u);
  EXPECT_EQ(db.superseded, 1u);  // the stale record
}

// -------------------------------------------------------------- faultfs

TEST_F(FaultFsTest, ParsePlanReadsModesAndRejectsUnknownOnes) {
  const faultfs::FaultPlan plan =
      faultfs::parse_plan("fail_write:2,torn_rename:1");
  EXPECT_EQ(plan.fail_write_nth, 2);
  EXPECT_EQ(plan.torn_rename_nth, 1);
  EXPECT_TRUE(plan.armed());
  EXPECT_FALSE(faultfs::parse_plan("").armed());
  EXPECT_THROW((void)faultfs::parse_plan("melt_cpu:1"), Error);
  EXPECT_THROW((void)faultfs::parse_plan("fail_write:zero"), Error);
  EXPECT_THROW((void)faultfs::parse_plan("fail_write"), Error);
}

TEST_F(FaultFsTest, EnvVarArmsThePlanOnce) {
  ::setenv("RDSE_FAULTFS", "fail_fsync:3", 1);
  EXPECT_TRUE(faultfs::arm_from_env());
  ::unsetenv("RDSE_FAULTFS");
  EXPECT_FALSE(faultfs::arm_from_env());
}

/// Arm one fault mode against a save over an existing good database and
/// check the failure left the previous file fully intact.
void expect_save_fails_keeping_previous(const faultfs::FaultPlan& plan) {
  const std::string path = db_path("cachedb-fault.json");
  const Entries original = {{"old-key", "old-payload"}};
  ASSERT_TRUE(save_cache_db(path, original));

  faultfs::set_plan(plan);
  EXPECT_FALSE(save_cache_db(path, Entries{{"new-key", "new-payload"}}));
  EXPECT_GE(faultfs::counters().faults_fired, 1u);
  faultfs::clear();

  const LoadedCacheDb db = load_cache_db(path);
  EXPECT_EQ(db.entries, original);
  EXPECT_EQ(db.skipped, 0u);
  // The failed attempt's temp file was cleaned up.
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
}

TEST_F(FaultFsTest, FailedWriteKeepsThePreviousDatabase) {
  faultfs::FaultPlan plan;
  plan.fail_write_nth = 1;
  expect_save_fails_keeping_previous(plan);
}

TEST_F(FaultFsTest, ShortWriteKeepsThePreviousDatabase) {
  faultfs::FaultPlan plan;
  plan.short_write_nth = 1;  // torn bytes land in the temp file only
  expect_save_fails_keeping_previous(plan);
}

TEST_F(FaultFsTest, FailedFsyncKeepsThePreviousDatabase) {
  faultfs::FaultPlan plan;
  plan.fail_fsync_nth = 1;
  expect_save_fails_keeping_previous(plan);
}

TEST_F(FaultFsTest, FailedRenameKeepsThePreviousDatabase) {
  faultfs::FaultPlan plan;
  plan.fail_rename_nth = 1;
  expect_save_fails_keeping_previous(plan);
}

TEST_F(FaultFsTest, TornRenameCommitsARecoverableTruncatedFile) {
  const std::string path = db_path("cachedb-torn.json");
  const Entries entries = {{"k1", "p1"}, {"k2", "p2"}, {"k3", "p3"},
                           {"k4", "p4"}, {"k5", "p5"}};
  faultfs::FaultPlan plan;
  plan.torn_rename_nth = 1;
  faultfs::set_plan(plan);
  EXPECT_FALSE(save_cache_db(path, entries));  // the caller sees the fault
  faultfs::clear();

  // ...but half the file *was* committed — the crash-between-write-back-
  // and-commit shape. The loader recovers the surviving prefix and skips
  // at most the one line the cut landed in.
  const LoadedCacheDb db = load_cache_db(path);
  EXPECT_LT(db.entries.size(), entries.size());
  EXPECT_LE(db.skipped, 1u);
  for (std::size_t i = 0; i < db.entries.size(); ++i) {
    EXPECT_EQ(db.entries[i], entries[i]) << i;
  }
}

// ------------------------------------------- service-level persistence

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

std::string as_cached(std::string response) {
  const std::size_t at = response.find(R"("cached": false)");
  EXPECT_NE(at, std::string::npos);
  response.replace(at, 15, R"("cached": true)");
  return response;
}

TEST_F(FaultFsTest, CacheSurvivesARestartBitIdentically) {
  ServiceConfig config = fast_config();
  config.persist_path = db_path("cachedb-restart.json");

  std::string fresh;
  {
    ExplorationService service(config);
    const auto handled = service.handle(explore_line(42));
    ASSERT_TRUE(handled.ok) << handled.response;
    fresh = handled.response;
    EXPECT_EQ(service.stats().persist.appends, 1u);
    EXPECT_EQ(service.stats().persist.compactions, 0u);
    // The appended record is on disk before any drain.
    EXPECT_EQ(load_cache_db(config.persist_path).entries.size(), 1u);
  }  // destructor ~ "clean exit": the drain compacts

  ExplorationService restarted(config);
  const ServiceStats stats = restarted.stats();
  EXPECT_EQ(stats.persist.loaded, 1u);
  EXPECT_EQ(stats.persist.skipped, 0u);
  EXPECT_EQ(stats.persist.compactions, 0u);  // a clean startup does not
  const auto hit = restarted.handle(explore_line(42));
  ASSERT_TRUE(hit.ok) << hit.response;
  EXPECT_EQ(as_cached(fresh), hit.response);
  EXPECT_EQ(restarted.stats().cache.hits, 1u);
}

TEST_F(FaultFsTest, CorruptDatabaseDegradesToAMissWithCorrectAnswer) {
  ServiceConfig config = fast_config();
  config.persist_path = db_path("cachedb-corrupt.json");
  write_file(config.persist_path, "total garbage\nmore garbage\n");

  ExplorationService service(config);
  EXPECT_EQ(service.stats().persist.loaded, 0u);
  EXPECT_EQ(service.stats().persist.skipped, 2u);
  // Replay skipped lines, so startup compacted them away.
  EXPECT_EQ(service.stats().persist.compactions, 1u);

  // The answer is still computed fresh and correct.
  const auto handled = service.handle(explore_line(5));
  ASSERT_TRUE(handled.ok) << handled.response;
  EXPECT_NE(handled.response.find(R"("cached": false)"), std::string::npos);

  // And it was appended to the compacted, loadable file.
  const LoadedCacheDb db = load_cache_db(config.persist_path);
  EXPECT_EQ(db.entries.size(), 1u);
  EXPECT_EQ(db.skipped, 0u);
}

TEST_F(FaultFsTest, FreshResultAppendsOneRecordAndNoRename) {
  ServiceConfig config = fast_config();
  config.persist_path = db_path("cachedb-one-record.json");
  ExplorationService service(config);
  ASSERT_TRUE(service.handle(explore_line(1)).ok);
  const std::string before = read_file(config.persist_path);

  faultfs::clear();  // zero the call counters
  const auto handled = service.handle(explore_line(2));
  ASSERT_TRUE(handled.ok) << handled.response;
  const faultfs::Counters calls = faultfs::counters();
  EXPECT_EQ(calls.writes, 1u);
  EXPECT_EQ(calls.fsyncs, 1u);
  EXPECT_EQ(calls.renames, 0u);  // the request path never rewrites the file

  // The file grew by exactly one line, holding the fresh result.
  const std::string after = read_file(config.persist_path);
  ASSERT_EQ(after.rfind(before, 0), 0u);
  const std::string added = after.substr(before.size());
  EXPECT_EQ(std::count(added.begin(), added.end(), '\n'), 1);
  const LoadedCacheDb db = load_cache_db(config.persist_path);
  ASSERT_EQ(db.entries.size(), 2u);
  EXPECT_EQ(db.entries[1].first, canonical_key(parse_request(
                                     JsonValue::parse(explore_line(2)))));
}

/// Each caller's fresh response, keyed by its request's canonical key.
using Answers = std::vector<std::pair<std::string, std::string>>;

/// The payload bytes of a fresh response.
std::string result_payload(const std::string& response) {
  return JsonValue::parse(response).at("result").dump();
}

/// Every answered fresh result must be in the database with its payload.
void expect_all_on_disk(const std::string& path, const Answers& answers) {
  const LoadedCacheDb db = load_cache_db(path);
  EXPECT_EQ(db.skipped, 0u);
  for (const auto& [key, response] : answers) {
    const auto it =
        std::find_if(db.entries.begin(), db.entries.end(),
                     [&](const auto& entry) { return entry.first == key; });
    ASSERT_NE(it, db.entries.end()) << key;
    EXPECT_EQ(it->second, result_payload(response)) << key;
  }
}

/// `callers` threads, each answering `per_caller` distinct fresh requests
/// (seeds from `first_seed`), while `meanwhile` runs on this thread until
/// they are done.
Answers answer_concurrently(ExplorationService& service, int callers,
                            int per_caller, int first_seed,
                            const std::function<void()>& meanwhile) {
  std::vector<Answers> per_thread(static_cast<std::size_t>(callers));
  std::atomic<int> running{callers};
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < per_caller; ++i) {
        const std::string line = explore_line(first_seed + c * per_caller + i);
        const auto handled = service.handle(line);
        EXPECT_TRUE(handled.ok) << handled.response;
        per_thread[static_cast<std::size_t>(c)].emplace_back(
            canonical_key(parse_request(JsonValue::parse(line))),
            handled.response);
      }
      --running;
    });
  }
  while (running.load() > 0) meanwhile();
  for (std::thread& t : threads) t.join();
  Answers all;
  for (const Answers& a : per_thread) all.insert(all.end(), a.begin(), a.end());
  return all;
}

TEST_F(FaultFsTest, ConcurrentFreshResultsAreOnDiskBeforeDrain) {
  ServiceConfig config = fast_config();
  config.workers = 3;
  config.queue_capacity = 16;
  config.persist_path = db_path("cachedb-concurrent.json");
  ExplorationService service(config);
  const Answers answers = answer_concurrently(service, 4, 3, 100, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  // No drain and no compaction yet: the appends alone hold every answer.
  EXPECT_EQ(service.stats().persist.appends, answers.size());
  EXPECT_EQ(service.stats().persist.compactions, 0u);
  expect_all_on_disk(config.persist_path, answers);
}

TEST_F(FaultFsTest, ReloadRacingFreshResultsLosesNoRecord) {
  ServiceConfig config = fast_config();
  config.workers = 3;
  config.queue_capacity = 16;
  config.persist_path = db_path("cachedb-reload-race.json");
  ExplorationService service(config);
  const Answers answers =
      answer_concurrently(service, 4, 3, 200, [&] { service.reload(); });
  EXPECT_GE(service.stats().persist.compactions, 1u);
  expect_all_on_disk(config.persist_path, answers);
}

TEST_F(FaultFsTest, SmallCacheKeepsTheFileWithinTheSizeRule) {
  ServiceConfig config = fast_config();
  config.cache_capacity = 2;
  config.persist_path = db_path("cachedb-size-rule.json");
  ExplorationService service(config);
  const std::uint64_t bound = 2 * config.cache_capacity + kCacheDbSlack;
  for (int seed = 0; seed < static_cast<int>(bound) + 8; ++seed) {
    const auto handled = service.handle(
        R"({"op": "explore", "clbs": 400, "iters": 20, "warmup": 5, )"
        R"("seed": )" +
        std::to_string(seed) + "}");
    ASSERT_TRUE(handled.ok) << handled.response;
    const std::string text = read_file(config.persist_path);
    const auto lines =
        static_cast<std::uint64_t>(std::count(text.begin(), text.end(), '\n'));
    ASSERT_LE(lines - 1, bound) << "after seed " << seed;  // minus the header
  }
  EXPECT_GE(service.stats().persist.compactions, 1u);
  // A compaction leaves exactly the live entries.
  service.reload();
  EXPECT_EQ(load_cache_db(config.persist_path).entries.size(), 2u);
}

TEST_F(FaultFsTest, EveryInjectedFaultDegradesToMissNotWrongPayload) {
  // The acceptance gate: under each fault mode, aimed at the fresh
  // result's append or at the drain's compaction, the service keeps
  // answering correctly; after a restart the worst case is a cache miss
  // that recomputes the same bytes. The database exists beforehand, so an
  // append writes and fsyncs but never renames: the rename modes can only
  // reach a compaction (which here is the second write and fsync).
  struct Case {
    const char* spec;
    bool hits_append;
  };
  const Case cases[] = {
      {"fail_write:1", true},   {"short_write:1", true},
      {"fail_fsync:1", true},   {"fail_write:2", false},
      {"short_write:2", false}, {"fail_fsync:2", false},
      {"fail_rename:1", false}, {"torn_rename:1", false}};
  std::string reference;
  for (const Case& c : cases) {
    ServiceConfig config = fast_config();
    config.persist_path = db_path("cachedb-degrade.json");
    ASSERT_TRUE(save_cache_db(config.persist_path, Entries{}));

    faultfs::set_plan(faultfs::parse_plan(c.spec));
    std::string fresh;
    {
      ExplorationService service(config);
      const auto handled = service.handle(explore_line(9));
      ASSERT_TRUE(handled.ok) << c.spec << ": " << handled.response;
      fresh = handled.response;
      EXPECT_EQ(faultfs::counters().renames, 0u) << c.spec;
      service.begin_drain();
      const CacheDb::Counters persist = service.stats().persist;
      EXPECT_EQ(faultfs::counters().faults_fired, 1u) << c.spec;
      EXPECT_EQ(persist.append_failures, c.hits_append ? 1u : 0u) << c.spec;
      EXPECT_EQ(persist.compaction_failures, c.hits_append ? 0u : 1u)
          << c.spec;
    }
    faultfs::clear();
    if (reference.empty()) reference = fresh;
    EXPECT_EQ(reference, fresh) << c.spec;  // same bytes under every fault

    ExplorationService restarted(config);
    const auto again = restarted.handle(explore_line(9));
    ASSERT_TRUE(again.ok) << c.spec << ": " << again.response;
    // Loaded-from-disk hit or recomputed miss — either way the payload
    // bytes match the fresh run exactly.
    if (again.response.find(R"("cached": true)") != std::string::npos) {
      EXPECT_EQ(as_cached(fresh), again.response) << c.spec;
    } else {
      EXPECT_EQ(fresh, again.response) << c.spec;
    }
  }
}

// ------------------------------------------------- write-ahead journal

std::string canonical_explore_key(int seed) {
  return canonical_key(parse_request(JsonValue::parse(explore_line(seed))));
}

TEST_F(FaultFsTest, JournalReplaysOpenWorkAndCompactsClosedWork) {
  const std::string path = db_path("journal-roundtrip.ndjson");
  {
    WorkJournal journal(path);
    EXPECT_TRUE(journal.pending().empty());
    EXPECT_TRUE(journal.append("accepted", "key-done"));
    EXPECT_TRUE(journal.append("started", "key-done"));
    EXPECT_TRUE(journal.append("accepted", "key-open"));
    EXPECT_TRUE(journal.append("completed", "key-done"));
    EXPECT_TRUE(journal.append("accepted", "key-cancelled"));
    EXPECT_TRUE(journal.append("cancelled", "key-cancelled"));
    EXPECT_EQ(journal.counters().appends, 6u);
    EXPECT_EQ(journal.counters().append_failures, 0u);
  }  // ~ "crash after these appends"

  WorkJournal reopened(path);
  // Only the accepted-but-never-finished key is replayed; completed and
  // cancelled work is closed and compacted away.
  ASSERT_EQ(reopened.pending().size(), 1u);
  EXPECT_EQ(reopened.pending()[0], "key-open");
  EXPECT_EQ(reopened.counters().replayed, 1u);
  EXPECT_EQ(reopened.counters().skipped, 0u);
  EXPECT_EQ(reopened.counters().compactions, 1u);
  // The compacted file carries only the open entry (plus the header).
  const std::string text = read_file(path);
  EXPECT_EQ(text.rfind("{\"format\": \"rdse.journal.v2\"}\n", 0), 0u)
      << text;
  EXPECT_NE(text.find(R"("event": "accepted", "key": "key-open")"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("key-done"), std::string::npos);
  EXPECT_EQ(text.find("key-cancelled"), std::string::npos);
}

TEST_F(FaultFsTest, JournalCompactionFaultNeverReplaysWrongWork) {
  // Every fault mode aimed at the startup compaction: the replay that
  // preceded it still reports the open work, and the file left behind
  // (the old one, or a torn new one) replays nothing but that work.
  for (const char* spec : {"fail_write:1", "short_write:1", "fail_fsync:1",
                           "fail_rename:1", "torn_rename:1"}) {
    const std::string path = db_path("journal-compaction-fault.ndjson");
    {
      WorkJournal journal(path);
      ASSERT_TRUE(journal.append("accepted", "key-done"));
      ASSERT_TRUE(journal.append("accepted", "key-open"));
      ASSERT_TRUE(journal.append("completed", "key-done"));
    }
    faultfs::set_plan(faultfs::parse_plan(spec));
    {
      WorkJournal reopened(path);
      EXPECT_EQ(faultfs::counters().faults_fired, 1u) << spec;
      EXPECT_EQ(reopened.counters().compactions, 0u) << spec;
      EXPECT_EQ(reopened.counters().append_failures, 1u) << spec;
      ASSERT_EQ(reopened.pending().size(), 1u) << spec;
      EXPECT_EQ(reopened.pending()[0], "key-open") << spec;
    }
    faultfs::clear();
    WorkJournal again(path);
    EXPECT_LE(again.pending().size(), 1u) << spec;
    for (const std::string& key : again.pending()) {
      EXPECT_EQ(key, "key-open") << spec;
    }
  }
}

/// The five faultfs modes, aimed at the `io`-th write or fsync and at the
/// first rename.
std::vector<std::string> fault_specs(int io) {
  const std::string n = std::to_string(io);
  return {"fail_write:" + n, "short_write:" + n, "fail_fsync:" + n,
          "fail_rename:1", "torn_rename:1"};
}

TEST_F(FaultFsTest, JournalCompactionFaultsKeepEveryOpenKey) {
  // Every fault mode aimed at a running journal's compaction, both where
  // the owner asks for it (drain, SIGHUP) and where an append crosses the
  // size rule. The compaction is lost, but the file left behind (the old
  // one, or one a torn rename cut short, with the open keys appended
  // again) still replays exactly the open keys.
  const std::vector<std::string> open = {"key-a", "key-b"};
  const std::uint64_t rule = 2 * open.size() + kCacheDbSlack;
  for (const bool by_rule : {false, true}) {
    // The rule's own append writes and fsyncs first, so there the
    // compaction's write and fsync are the second ones.
    for (const std::string& spec : fault_specs(by_rule ? 2 : 1)) {
      SCOPED_TRACE(spec + (by_rule ? " at the size rule" : " at compact()"));
      const std::string path = db_path("journal-running-compaction.ndjson");
      {
        WorkJournal journal(path);
        ASSERT_TRUE(journal.append("accepted", "key-a"));
        ASSERT_TRUE(journal.append("accepted", "key-b"));
        ASSERT_TRUE(journal.append("started", "key-a"));
        ASSERT_TRUE(journal.append("accepted", "key-done"));
        ASSERT_TRUE(journal.append("completed", "key-done"));
        // Before the size rule fires, fill the file to its limit with
        // close-outs of a key that was never open.
        for (std::uint64_t r = 5; by_rule && r < rule; ++r) {
          ASSERT_TRUE(journal.append("cancelled", "key-gone"));
        }
        ASSERT_EQ(journal.counters().compactions, 0u);
        faultfs::set_plan(faultfs::parse_plan(spec));
        if (by_rule) {
          EXPECT_TRUE(journal.append("cancelled", "key-gone"));
        } else {
          journal.compact();
        }
        EXPECT_EQ(faultfs::counters().faults_fired, 1u);
        EXPECT_EQ(journal.counters().compactions, 0u);
        EXPECT_EQ(journal.counters().append_failures, 1u);
        faultfs::clear();
      }
      WorkJournal reopened(path);
      EXPECT_EQ(reopened.pending(), open);
    }
  }
}

TEST_F(FaultFsTest, JournalTornInsideItsHeaderReplaysEmpty) {
  // With no open key a compaction writes the header alone, so a torn
  // rename cuts the header itself. That file is no foreign journal: it
  // replays as empty, and the next append writes a whole header first.
  const std::string path = db_path("journal-torn-header.ndjson");
  {
    WorkJournal journal(path);
    ASSERT_TRUE(journal.append("accepted", "key-done"));
    ASSERT_TRUE(journal.append("completed", "key-done"));
    faultfs::set_plan(faultfs::parse_plan("torn_rename:1"));
    journal.compact();
    EXPECT_EQ(faultfs::counters().faults_fired, 1u);
    faultfs::clear();
  }
  const std::string header = R"({"format": "rdse.journal.v2"})";
  ASSERT_LT(read_file(path).size(), header.size());
  {
    WorkJournal reopened(path);
    EXPECT_TRUE(reopened.pending().empty());
    EXPECT_EQ(reopened.counters().skipped, 0u);
    EXPECT_TRUE(reopened.append("accepted", "key-next"));
  }
  EXPECT_EQ(read_file(path).rfind(header + "\n", 0), 0u);
  WorkJournal again(path);
  EXPECT_EQ(again.pending(), std::vector<std::string>{"key-next"});
}

TEST_F(FaultFsTest, JournalForeignFormatThrowsGarbageLinesSkip) {
  // A v1 journal (a bare tag line) is not imported: it is rejected loudly.
  const std::string foreign = db_path("journal-foreign.ndjson");
  write_file(foreign, "rdse.journal.v1\n");
  EXPECT_THROW(WorkJournal{foreign}, Error);

  // Torn and tampered lines are skipped individually; intact entries around
  // them survive.
  const std::string path = db_path("journal-garbage.ndjson");
  {
    WorkJournal journal(path);
    EXPECT_TRUE(journal.append("accepted", "good-key"));
  }
  std::string text = read_file(path);
  text += "not json at all\n";
  text += R"({"checksum": "0000000000000000", "body": )"
          R"({"event": "accepted", "key": "forged"}})"
          "\n";
  text += text.substr(text.find('\n') + 1, 20);  // torn final line
  write_file(path, text);

  WorkJournal reopened(path);
  ASSERT_EQ(reopened.pending().size(), 1u);
  EXPECT_EQ(reopened.pending()[0], "good-key");
  EXPECT_EQ(reopened.counters().skipped, 3u);
}

TEST_F(FaultFsTest, JournalAppendFaultDegradesAndRecovers) {
  const std::string path = db_path("journal-append-fault.ndjson");
  WorkJournal journal(path);

  faultfs::FaultPlan plan;
  plan.fail_write_nth = 1;
  faultfs::set_plan(plan);
  EXPECT_FALSE(journal.append("accepted", "lost-key"));
  faultfs::clear();
  EXPECT_EQ(journal.counters().append_failures, 1u);

  // The journal keeps working after the fault, and the recovery byte keeps
  // the file parseable: a reopen replays exactly the surviving entry.
  EXPECT_TRUE(journal.append("accepted", "kept-key"));
  EXPECT_EQ(journal.counters().appends, 1u);

  WorkJournal reopened(path);
  ASSERT_EQ(reopened.pending().size(), 1u);
  EXPECT_EQ(reopened.pending()[0], "kept-key");
}

TEST_F(FaultFsTest, ServiceReplaysAcceptedWorkAfterACrash) {
  // The crash shape: work was journaled "accepted" (and even "started") but
  // the process died before "completed". On restart the service re-executes
  // it in the background and closes it out.
  ServiceConfig config = fast_config();
  config.journal_path = db_path("journal-crash.ndjson");
  const std::string key = canonical_explore_key(17);
  {
    WorkJournal journal(config.journal_path);
    ASSERT_TRUE(journal.append("accepted", key));
    ASSERT_TRUE(journal.append("started", key));
  }  // kill -9 here

  {
    ExplorationService service(config);
    const ServiceStats stats = service.stats();
    EXPECT_TRUE(stats.journal_enabled);
    EXPECT_EQ(stats.journal.replayed, 1u);
    EXPECT_GE(stats.uptime_ms, 0);
    // The replay thread re-runs the work; wait for it to complete.
    for (int i = 0; i < 2'000 && service.stats().completed == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(service.stats().completed, 1u);
    // The re-run landed in the cache: the original client retrying its
    // request gets an O(1) hit.
    const auto hit = service.handle(explore_line(17));
    ASSERT_TRUE(hit.ok) << hit.response;
    EXPECT_NE(hit.response.find(R"("cached": true)"), std::string::npos);
  }

  // After the clean restart nothing is left to replay.
  ExplorationService restarted(config);
  EXPECT_EQ(restarted.stats().journal.replayed, 0u);
}

/// Records a journal file holds: its lines after the header.
std::size_t journal_records(const std::string& path) {
  const std::string text = read_file(path);
  const auto lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  return lines == 0 ? 0 : lines - 1;
}

TEST(ServeJournal, FreshResultsKeepTheFileWithinItsSizeRule) {
  // Three records per fresh result, but no key stays open once its client
  // is answered: the file never holds more than 2 x open + kCacheDbSlack
  // records, and a drain leaves only the header.
  ServiceConfig config = fast_config();
  config.journal_path = db_path("journal-size-rule.ndjson");
  {
    ExplorationService service(config);
    for (int seed = 0; seed < 200; ++seed) {
      const auto handled = service.handle(explore_line(1000 + seed));
      ASSERT_TRUE(handled.ok) << handled.response;
      ASSERT_LE(journal_records(config.journal_path), kCacheDbSlack)
          << "after result " << seed;
    }
    const WorkJournal::Counters counters = service.stats().journal;
    EXPECT_EQ(counters.appends, 600u);
    EXPECT_GE(counters.compactions, 600u / (kCacheDbSlack + 1));
    EXPECT_EQ(counters.append_failures, 0u);
  }
  EXPECT_EQ(journal_records(config.journal_path), 0u);
  ExplorationService restarted(config);
  EXPECT_EQ(restarted.stats().journal.replayed, 0u);
  EXPECT_EQ(restarted.stats().journal.compactions, 0u);
}

TEST(ServeJournal, ReloadRacingFreshRequestsLosesNoOpenKey) {
  // SIGHUP compactions race the appends of six fresh requests: two held
  // inside their workers, four queued. While they are open, every copy of
  // the journal replays all six keys; once answered, a reload drops them.
  ServiceConfig config = fast_config();
  config.journal_path = db_path("journal-reload-race.ndjson");
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  config.on_job_start = [released] { released.wait(); };
  ExplorationService service(config);

  constexpr int kRequests = 6;
  std::vector<std::future<ExplorationService::Handled>> answers;
  std::vector<std::string> keys;
  for (int seed = 0; seed < kRequests; ++seed) {
    answers.push_back(std::async(std::launch::async, [&service, seed] {
      return service.handle(explore_line(300 + seed));
    }));
    keys.push_back(canonical_explore_key(300 + seed));
  }
  std::sort(keys.begin(), keys.end());
  // Six accepted records and two started ones.
  while (service.stats().journal.appends < kRequests + 2) service.reload();
  const std::string copy = db_path("journal-reload-race-copy.ndjson");
  for (int look = 0; look < 5; ++look) {
    service.reload();
    write_file(copy, read_file(config.journal_path));
    std::vector<std::string> pending = WorkJournal(copy).pending();
    std::sort(pending.begin(), pending.end());
    EXPECT_EQ(pending, keys) << "look " << look;
  }
  release.set_value();
  for (auto& answer : answers) {
    const auto handled = answer.get();
    EXPECT_TRUE(handled.ok) << handled.response;
  }
  EXPECT_GT(service.stats().journal.compactions, 0u);
  service.reload();
  EXPECT_EQ(journal_records(config.journal_path), 0u);
}

TEST_F(FaultFsTest, ServicePoisonJournalEntryIsCancelledNotFatal) {
  // An unparseable key (schema drift, corruption that passed the line
  // checksum) must be closed out as cancelled — not crash the service, not
  // stay pending forever.
  ServiceConfig config = fast_config();
  config.journal_path = db_path("journal-poison.ndjson");
  {
    WorkJournal journal(config.journal_path);
    ASSERT_TRUE(journal.append("accepted", "{\"op\": \"no-such-op\"}"));
  }
  {
    ExplorationService service(config);
    EXPECT_EQ(service.stats().journal.replayed, 1u);
    // Poison is answered with a journaled "cancelled"; wait for it.
    for (int i = 0; i < 2'000 && service.stats().journal.appends == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // The service still answers real work.
    EXPECT_TRUE(service.handle(explore_line(2)).ok);
  }
  ExplorationService restarted(config);
  EXPECT_EQ(restarted.stats().journal.replayed, 0u);
}

TEST_F(FaultFsTest, ServiceReplayOverTheWorkCapIsCancelledNotRun) {
  // Work journaled under a larger cap and replayed under this one: each run
  // fits, the whole request does not, so the replay closes it out as
  // cancelled without running it.
  ServiceConfig config = fast_config();
  config.max_iterations = 1'000;
  config.journal_path = db_path("journal-over-cap.ndjson");
  const std::string line =
      R"({"op": "explore", "iters": 500, "warmup": 100, "runs": 2})";
  const std::string key = canonical_key(parse_request(JsonValue::parse(line)));
  {
    WorkJournal journal(config.journal_path);
    ASSERT_TRUE(journal.append("accepted", key));
  }
  {
    ExplorationService service(config);
    EXPECT_EQ(service.stats().journal.replayed, 1u);
    for (int i = 0; i < 2'000; ++i) {
      const ServiceStats stats = service.stats();
      if (stats.errors + stats.completed > 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.errors, 1u);
    EXPECT_EQ(stats.completed, 0u);
    EXPECT_EQ(stats.journal.appends, 1u);  // the "cancelled" record only
  }
  ExplorationService restarted(config);
  EXPECT_EQ(restarted.stats().journal.replayed, 0u);
}

// -------------------------------------------------- deadlines and drain

TEST(ServeDeadline, ExpiredDeadlineReturnsErrorAndFreesTheWorker) {
  ServiceConfig config = fast_config();
  config.max_iterations = std::int64_t{1} << 40;
  ExplorationService service(config);

  // A run that would take minutes, against a 25 ms deadline.
  const std::string line =
      R"({"op": "explore", "clbs": 2000, "iters": 500000000, )"
      R"("timeout_ms": 25})";
  const auto t0 = std::chrono::steady_clock::now();
  const auto handled = service.handle(line);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_FALSE(handled.ok);
  const JsonValue doc = JsonValue::parse(handled.response);
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").as_string(), "deadline exceeded");
  EXPECT_EQ(doc.find("result"), nullptr);  // never a partial payload
  // Cooperative cancellation is not instant, but it is bounded: orders of
  // magnitude under the full run, generous enough for sanitizer builds.
  EXPECT_LT(elapsed, 10'000) << "cancellation took " << elapsed << " ms";

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.in_flight, 0u);  // the worker was freed
  EXPECT_EQ(stats.cache.entries, 0u);  // deadline responses are not cached

  // The worker is genuinely reusable: a small request still completes.
  EXPECT_TRUE(service.handle(explore_line(1)).ok);
}

TEST(ServeDeadline, GenerousDeadlineDoesNotPerturbThePayload) {
  ExplorationService service(fast_config());
  const auto plain = service.handle(explore_line(3));
  ASSERT_TRUE(plain.ok);

  ServiceConfig config = fast_config();
  ExplorationService with_deadline(config);
  const std::string line =
      R"({"op": "explore", "clbs": 400, "iters": 600, "warmup": 100, )"
      R"("seed": 3, "timeout_ms": 600000})";
  const auto timed = with_deadline.handle(line);
  ASSERT_TRUE(timed.ok) << timed.response;
  // timeout_ms is an execution knob: same cache key, same payload bytes.
  EXPECT_EQ(plain.response, timed.response);
  const auto hit = with_deadline.handle(explore_line(3));
  ASSERT_TRUE(hit.ok);
  EXPECT_NE(hit.response.find(R"("cached": true)"), std::string::npos);
}

TEST(ServeDeadline, DrainCancelsQueuedButUnstartedWork) {
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.cache_capacity = 16;
  config.on_job_start = [released] { released.wait(); };
  ExplorationService service(config);

  auto run = [&service](int seed) {
    return service.handle(explore_line(seed));
  };
  std::future<ExplorationService::Handled> first =
      std::async(std::launch::async, run, 1);
  while (service.stats().in_flight == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::future<ExplorationService::Handled> second =
      std::async(std::launch::async, run, 2);
  while (service.stats().queue_depth == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The drain begins while the second request is queued but unstarted:
  // it must be cancelled at pickup, not executed.
  service.begin_drain();
  release.set_value();

  const auto a = first.get();  // already in flight: completes normally
  EXPECT_TRUE(a.ok) << a.response;
  const auto b = second.get();
  EXPECT_FALSE(b.ok);
  EXPECT_EQ(JsonValue::parse(b.response).at("error").as_string(),
            "cancelled");

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

}  // namespace
}  // namespace rdse::serve
