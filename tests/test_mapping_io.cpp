/// Tests for solution serialization round-trips and failure injection.

#include <gtest/gtest.h>

#include "mapping/io.hpp"
#include "mapping/validation.hpp"
#include "model/motion_detection.hpp"
#include "sched/evaluator.hpp"

namespace rdse {
namespace {

class IoFixture : public ::testing::Test {
 protected:
  IoFixture()
      : app(make_motion_detection_app()),
        arch(make_cpu_fpga_architecture(2000, kMotionDetectionTrPerClb,
                                        kMotionDetectionBusRate)) {}
  [[nodiscard]] Solution parse(const std::string& text) const {
    return solution_from_text(app.graph, arch, text);
  }
  /// The diagnostic `text` fails with.
  [[nodiscard]] std::string parse_error(const std::string& text) const {
    try {
      (void)parse(text);
    } catch (const Error& e) {
      return e.what();
    }
    return "(parsed)";
  }
  Application app;
  Architecture arch;
};

TEST_F(IoFixture, RoundTripAllSoftware) {
  const Solution sol = Solution::all_software(app.graph, 0);
  const std::string text = solution_to_text(app.graph, sol);
  const Solution back = solution_from_text(app.graph, arch, text);
  EXPECT_EQ(back, sol);
}

class IoRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoRoundTrip, RandomPartitionsSurviveRoundTrip) {
  const Application app = make_motion_detection_app();
  Architecture arch = make_cpu_fpga_architecture(
      800, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  Rng rng(GetParam());
  const Solution sol = Solution::random_partition(app.graph, arch, 0, 1, rng);
  const std::string text = solution_to_text(app.graph, sol);
  const Solution back = solution_from_text(app.graph, arch, text);
  EXPECT_EQ(back, sol);
  require_valid(app.graph, arch, back);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST_F(IoFixture, RoundTripWithAsic) {
  Architecture arch2 = arch;
  const ResourceId asic = arch2.add_asic("asic0");
  Solution sol = Solution::all_software(app.graph, 0);
  sol.remove_task(4);
  sol.insert_on_asic(4, asic, 2);
  const std::string text = solution_to_text(app.graph, sol);
  const Solution back = solution_from_text(app.graph, arch2, text);
  EXPECT_EQ(back, sol);
  EXPECT_EQ(back.placement(4).impl, 2u);
}

TEST_F(IoFixture, TextFormatIsHumanReadable) {
  Rng rng(5);
  const Solution sol = Solution::random_partition(app.graph, arch, 0, 1, rng);
  const std::string text = solution_to_text(app.graph, sol);
  EXPECT_NE(text.find("rdse-solution 1"), std::string::npos);
  EXPECT_NE(text.find("tasks 28"), std::string::npos);
  EXPECT_NE(text.find("proc 0"), std::string::npos);
  EXPECT_NE(text.find("erosion"), std::string::npos);
}

TEST_F(IoFixture, CommentsAndBlankLinesIgnored) {
  const Solution sol = Solution::all_software(app.graph, 0);
  std::string text = solution_to_text(app.graph, sol);
  text = "# leading comment\n\n" + text + "\n# trailing comment\n";
  EXPECT_EQ(parse(text), sol);
}

TEST_F(IoFixture, RejectsMissingHeader) {
  EXPECT_THROW((void)parse("proc 0 erosion\n"), Error);
  EXPECT_THROW((void)parse(""), Error);
}

TEST_F(IoFixture, RejectsWrongVersionOrTaskCount) {
  EXPECT_THROW((void)parse("rdse-solution 2\n"), Error);
  EXPECT_THROW((void)parse("rdse-solution 1\ntasks 5\n"), Error);
}

TEST_F(IoFixture, RejectsUnknownTaskAndDoubleAssignment) {
  EXPECT_THROW((void)parse("rdse-solution 1\nproc 0 not_a_task\n"), Error);
  EXPECT_THROW((void)parse("rdse-solution 1\nproc 0 erosion erosion\n"),
               Error);
}

TEST_F(IoFixture, RejectsMalformedContextRecords) {
  // Out-of-order context index.
  EXPECT_THROW((void)parse("rdse-solution 1\ncontext 1 1 erosion:0\n"), Error);
  // Empty context.
  EXPECT_THROW((void)parse("rdse-solution 1\ncontext 1 0\n"), Error);
  // Bad impl syntax.
  EXPECT_THROW((void)parse("rdse-solution 1\ncontext 1 0 erosion\n"), Error);
  // Impl out of range (erosion has 6 implementations).
  EXPECT_THROW((void)parse("rdse-solution 1\ncontext 1 0 erosion:9\n"), Error);
}

TEST_F(IoFixture, RejectsIncompleteCoverage) {
  EXPECT_THROW((void)parse("rdse-solution 1\nproc 0 erosion dilation\n"),
               Error);
}

TEST_F(IoFixture, RejectsUnknownRecord) {
  EXPECT_THROW((void)parse("rdse-solution 1\nwhatever 1\n"), Error);
}

TEST_F(IoFixture, RejectsAResourceThePlatformLacks) {
  // A record's id sizes the Solution's per-resource tables: an id that
  // names no live resource of the record's kind is a line error, never an
  // allocation.
  EXPECT_EQ(parse_error("rdse-solution 1\nproc 7 erosion\n"),
            "solution_from_text: line 2: resource 7 is not a live processor");
  EXPECT_EQ(parse_error("rdse-solution 1\ncontext 2 0 erosion:0\n"),
            "solution_from_text: line 2: resource 2 is not a live "
            "reconfigurable");
  // Live, but of another kind.
  EXPECT_EQ(parse_error("rdse-solution 1\nproc 1 erosion\n"),
            "solution_from_text: line 2: resource 1 is not a live processor");
  EXPECT_EQ(parse_error("rdse-solution 1\ncontext 0 0 erosion:0\n"),
            "solution_from_text: line 2: resource 0 is not a live "
            "reconfigurable");
  EXPECT_EQ(parse_error("rdse-solution 1\nasic 1 erosion:0\n"),
            "solution_from_text: line 2: resource 1 is not a live asic");
  // A tombstoned slot is no resource either.
  Architecture gone = arch;
  gone.remove(1);
  const std::string text = "rdse-solution 1\ncontext 1 0 erosion:0\n";
  EXPECT_THROW((void)solution_from_text(app.graph, gone, text), Error);
}

TEST_F(IoFixture, RejectsAnImplementationIndexThatIsNotAWholeInRangeInt) {
  // 2^32 would wrap to implementation 0 through a 32-bit cast.
  EXPECT_EQ(parse_error("rdse-solution 1\ncontext 1 0 erosion:4294967296\n"),
            "solution_from_text: line 2: bad implementation index in "
            "'erosion:4294967296'");
  EXPECT_EQ(parse_error("rdse-solution 1\ncontext 1 0 erosion:-1\n"),
            "solution_from_text: line 2: bad implementation index in "
            "'erosion:-1'");
  EXPECT_EQ(parse_error("rdse-solution 1\ncontext 1 0 erosion:2x\n"),
            "solution_from_text: line 2: bad implementation index in "
            "'erosion:2x'");
  // An ASIC member's index is range-checked like a context member's.
  Architecture with_asic = arch;
  with_asic.add_asic("asic0");
  const std::string text = "rdse-solution 1\nasic 2 erosion:9\n";
  EXPECT_THROW((void)solution_from_text(app.graph, with_asic, text), Error);
}

TEST(IoProcessorSpeed, FasterProcessorShortensMakespan) {
  // Heterogeneous-processor support: a 2x core halves software times.
  const Application app = make_motion_detection_app();
  Architecture fast{Bus(kMotionDetectionBusRate)};
  fast.add_processor("cpu_fast", 100.0, 2.0);
  const Solution sol = Solution::all_software(app.graph, 0);
  const Evaluator ev(app.graph, fast);
  const auto m = ev.evaluate(sol);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->makespan, from_ms(38.2));  // 76.4 / 2
}

}  // namespace
}  // namespace rdse
