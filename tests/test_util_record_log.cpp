/// Tests for the record log (util/record_log.hpp), the one on-disk format
/// of the cache database, the work journal and checkpoints: sealing,
/// replay of torn, corrupt and foreign files, the recovery newline after a
/// failed append, and atomic rewrites under every util/faultfs mode.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/faultfs.hpp"
#include "util/record_log.hpp"

namespace rdse {
namespace {

constexpr const char* kFormat = "rdse.test.v1";

std::string log_path(const std::string& name) {
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

JsonValue body(int n) {
  JsonValue b = JsonValue::object();
  b.set("n", n);
  b.set("text", "record \"" + std::to_string(n) + "\"\n");
  return b;
}

std::vector<std::string> dumps(const std::vector<JsonValue>& bodies) {
  std::vector<std::string> out;
  for (const JsonValue& b : bodies) out.push_back(b.dump());
  return out;
}

std::vector<std::string> dumps_of(std::initializer_list<int> ns) {
  std::vector<std::string> out;
  for (const int n : ns) out.push_back(body(n).dump());
  return out;
}

class RecordLogTest : public ::testing::Test {
 protected:
  void SetUp() override { faultfs::clear(); }
  void TearDown() override { faultfs::clear(); }
};

TEST(RecordSeal, RoundTripsTheBody) {
  JsonValue b = body(7);
  JsonValue nested = JsonValue::array();
  nested.push_back(1.5);
  nested.push_back(JsonValue());
  b.set("nested", std::move(nested));
  const JsonValue sealed = seal(b);
  EXPECT_EQ(sealed.dump().rfind("{\"checksum\": \"", 0), 0u) << sealed.dump();
  ASSERT_NE(sealed.find("body"), nullptr);

  // Through text and back, as replay sees it.
  const std::optional<JsonValue> back =
      unseal(JsonValue::parse(sealed.dump()));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dump(), b.dump());
}

TEST(RecordSeal, OneFlippedBodyByteFailsTheChecksum) {
  std::string text = seal(body(3)).dump();
  const std::size_t at = text.find("record");
  ASSERT_NE(at, std::string::npos);
  text[at] = 'R';
  EXPECT_FALSE(unseal(JsonValue::parse(text)).has_value());
  // Not a sealed record at all.
  EXPECT_FALSE(unseal(JsonValue::parse("[1, 2]")).has_value());
  EXPECT_FALSE(unseal(JsonValue::parse(R"({"body": 1})")).has_value());
}

TEST_F(RecordLogTest, AppendsReplayInOrderUnderTheirHeader) {
  const std::string path = log_path("rlog-order.ndjson");
  EXPECT_EQ(replay_records(path, kFormat).header,
            RecordReplay::Header::kAbsent);
  {
    RecordLog log(path, kFormat);
    for (int n = 1; n <= 3; ++n) ASSERT_TRUE(log.append(body(n)));
  }
  // The first append created the file with its header.
  const std::string text = read_file(path);
  EXPECT_EQ(text.rfind("{\"format\": \"rdse.test.v1\"}\n", 0), 0u) << text;
  const RecordReplay replay = replay_records(path, kFormat);
  EXPECT_EQ(replay.header, RecordReplay::Header::kOurs);
  EXPECT_EQ(dumps(replay.bodies), dumps_of({1, 2, 3}));
  EXPECT_EQ(replay.skipped, 0u);
}

TEST_F(RecordLogTest, TornLastLineIsSkippedAndCounted) {
  const std::string path = log_path("rlog-torn.ndjson");
  {
    RecordLog log(path, kFormat);
    for (int n = 1; n <= 3; ++n) ASSERT_TRUE(log.append(body(n)));
  }
  const std::string text = read_file(path);
  write_file(path, text.substr(0, text.size() - 10));  // cut mid-record
  RecordReplay replay = replay_records(path, kFormat);
  EXPECT_EQ(dumps(replay.bodies), dumps_of({1, 2}));
  EXPECT_EQ(replay.skipped, 1u);

  // An append to the torn file closes the cut line first, so the new
  // record loads and only the torn one is lost.
  {
    RecordLog log(path, kFormat);
    ASSERT_TRUE(log.append(body(4)));
  }
  replay = replay_records(path, kFormat);
  EXPECT_EQ(dumps(replay.bodies), dumps_of({1, 2, 4}));
  EXPECT_EQ(replay.skipped, 1u);
}

TEST_F(RecordLogTest, ForeignHeaderIsReportedAndVoidsEveryLine) {
  const std::string path = log_path("rlog-foreign.ndjson");
  {
    RecordLog log(path, kFormat);
    ASSERT_TRUE(log.append(body(1)));
    ASSERT_TRUE(log.append(body(2)));
  }
  const RecordReplay other = replay_records(path, "rdse.test.v2");
  EXPECT_EQ(other.header, RecordReplay::Header::kForeign);
  EXPECT_TRUE(other.bodies.empty());
  EXPECT_EQ(other.skipped, 3u);  // the header and both records

  write_file(path, "rdse.test.v1\n");  // a bare tag is not a header
  EXPECT_EQ(replay_records(path, kFormat).header,
            RecordReplay::Header::kForeign);
}

/// Append, fail one append under `spec`, append again: the record after
/// the fault must load.
void expect_append_recovers(const char* spec) {
  const std::string path = log_path("rlog-append-fault.ndjson");
  RecordLog log(path, kFormat);
  ASSERT_TRUE(log.append(body(1)));
  faultfs::set_plan(faultfs::parse_plan(spec));
  EXPECT_FALSE(log.append(body(2))) << spec;
  EXPECT_EQ(faultfs::counters().faults_fired, 1u) << spec;
  faultfs::clear();
  ASSERT_TRUE(log.append(body(3))) << spec;

  const RecordReplay replay = replay_records(path, kFormat);
  const std::vector<std::string> got = dumps(replay.bodies);
  // A failed fsync leaves its record written; a failed or short write
  // loses it, and the short write's half line is skipped.
  if (std::string(spec) == "fail_fsync:1") {
    EXPECT_EQ(got, dumps_of({1, 2, 3})) << spec;
  } else {
    EXPECT_EQ(got, dumps_of({1, 3})) << spec;
  }
  EXPECT_EQ(replay.skipped, std::string(spec) == "short_write:1" ? 1u : 0u)
      << spec;
}

TEST_F(RecordLogTest, NextAppendAfterAFaultStillLoads) {
  expect_append_recovers("fail_write:1");
  expect_append_recovers("short_write:1");
  expect_append_recovers("fail_fsync:1");
}

TEST_F(RecordLogTest, FailedFirstAppendLeavesNoHeaderlessFile) {
  // The first append creates the file with its header atomically, so a
  // fault there leaves no file, and the next append starts a whole one.
  for (const char* spec : {"fail_write:1", "short_write:1", "fail_fsync:1",
                           "fail_rename:1"}) {
    const std::string path = log_path("rlog-first-append.ndjson");
    RecordLog log(path, kFormat);
    faultfs::set_plan(faultfs::parse_plan(spec));
    EXPECT_FALSE(log.append(body(1))) << spec;
    faultfs::clear();
    EXPECT_NE(::access(path.c_str(), F_OK), 0) << spec;
    ASSERT_TRUE(log.append(body(2))) << spec;
    const RecordReplay replay = replay_records(path, kFormat);
    EXPECT_EQ(replay.header, RecordReplay::Header::kOurs) << spec;
    EXPECT_EQ(dumps(replay.bodies), dumps_of({2})) << spec;
  }
}

TEST_F(RecordLogTest, RewriteUnderEveryFaultLeavesTheOldFileOrTheNew) {
  std::vector<JsonValue> fresh;
  for (int n = 10; n < 20; ++n) fresh.push_back(body(n));
  const std::vector<std::string> new_dumps = dumps(fresh);

  for (const char* spec : {"fail_write:1", "short_write:1", "fail_fsync:1",
                           "fail_rename:1", "torn_rename:1"}) {
    const std::string path = log_path("rlog-rewrite-fault.ndjson");
    RecordLog log(path, kFormat);
    ASSERT_TRUE(log.rewrite({body(1), body(2)})) << spec;
    ASSERT_TRUE(log.append(body(3))) << spec;  // opens the append side

    faultfs::set_plan(faultfs::parse_plan(spec));
    EXPECT_FALSE(log.rewrite(fresh)) << spec;
    EXPECT_EQ(faultfs::counters().faults_fired, 1u) << spec;
    faultfs::clear();
    EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0) << spec;

    const RecordReplay replay = replay_records(path, kFormat);
    EXPECT_EQ(replay.header, RecordReplay::Header::kOurs) << spec;
    const std::vector<std::string> got = dumps(replay.bodies);
    if (std::string(spec) == "torn_rename:1") {
      // The new file, cut short: a prefix of it, at most one line torn.
      ASSERT_LT(got.size(), new_dumps.size()) << spec;
      EXPECT_TRUE(std::equal(got.begin(), got.end(), new_dumps.begin()))
          << spec;
      EXPECT_LE(replay.skipped, 1u) << spec;
    } else {
      EXPECT_EQ(got, dumps_of({1, 2, 3})) << spec;  // the old file, whole
      EXPECT_EQ(replay.skipped, 0u) << spec;
    }

    // Appends continue against whichever file the path now names.
    ASSERT_TRUE(log.append(body(4))) << spec;
    const RecordReplay after = replay_records(path, kFormat);
    ASSERT_FALSE(after.bodies.empty()) << spec;
    EXPECT_EQ(after.bodies.back().dump(), body(4).dump()) << spec;
  }
}

TEST_F(RecordLogTest, SealedDocumentRoundTripsAndRejectsForeignFormats) {
  const std::string path = log_path("rlog-document.json");
  ASSERT_TRUE(write_sealed_document(path, kFormat, body(5)));
  const std::string text = read_file(path);
  EXPECT_EQ(text.rfind("{\n  \"format\": \"rdse.test.v1\",\n  \"checksum\"", 0),
            0u)
      << text;
  EXPECT_EQ(read_sealed_document(path, kFormat).dump(), body(5).dump());
  EXPECT_THROW((void)read_sealed_document(path, "rdse.test.v2"), Error);
  write_file(path, text.substr(0, text.size() / 2));
  EXPECT_THROW((void)read_sealed_document(path, kFormat), Error);
}

}  // namespace
}  // namespace rdse
