/// Tests for cooperative cancellation: CancelToken semantics, deadline
/// expiry, propagation through the explorer and every mapper, and the
/// guarantee that a token that never fires does not change results in any
/// bit.

#include <gtest/gtest.h>

#include <string>

#include "baseline/mapper.hpp"
#include "core/explorer.hpp"
#include "model/motion_detection.hpp"
#include "util/cancel.hpp"

namespace rdse {
namespace {

TEST(CancelToken, StartsUnfiredAndCancelsSticky) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.deadline_expired());
  EXPECT_STREQ(token.reason(), "cancelled");
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.cancelled());  // sticky
  EXPECT_STREQ(token.reason(), "cancelled");
}

TEST(CancelToken, PastDeadlineFiresWithDeterministicReason) {
  CancelToken token;
  token.set_deadline_after_ms(0);  // expires immediately
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.deadline_expired());
  EXPECT_STREQ(token.reason(), "deadline exceeded");
}

TEST(CancelToken, FutureDeadlineDoesNotFireEarly) {
  CancelToken token;
  token.set_deadline_after_ms(3'600'000);  // an hour away
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.deadline_expired());
}

TEST(CancelToken, ThrowHelperIsANoOpOnNullAndUnfired) {
  EXPECT_NO_THROW(throw_if_cancelled(nullptr));
  CancelToken token;
  EXPECT_NO_THROW(throw_if_cancelled(&token));
  token.cancel();
  try {
    throw_if_cancelled(&token);
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& e) {
    EXPECT_EQ(std::string(e.what()), "cancelled");
  }
}

TEST(CancelToken, CancelledIsCatchableAsError) {
  CancelToken token;
  token.set_deadline_after_ms(-1);
  EXPECT_THROW(throw_if_cancelled(&token), Error);
}

class CancelExplorerTest : public ::testing::Test {
 protected:
  CancelExplorerTest()
      : app(make_motion_detection_app()),
        arch(make_cpu_fpga_architecture(2000, kMotionDetectionTrPerClb,
                                        kMotionDetectionBusRate)) {}

  Application app;
  Architecture arch;
};

TEST_F(CancelExplorerTest, UnfiredTokenChangesNoBitOfTheResult) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.seed = 11;
  config.iterations = 800;
  config.warmup_iterations = 120;
  config.record_trace = false;
  const RunResult plain = explorer.run(config);

  CancelToken token;
  token.set_deadline_after_ms(3'600'000);  // armed but never firing
  config.cancel = &token;
  const RunResult watched = explorer.run(config);

  EXPECT_EQ(plain.best_metrics.makespan, watched.best_metrics.makespan);
  EXPECT_EQ(plain.best_metrics.n_contexts, watched.best_metrics.n_contexts);
  EXPECT_EQ(plain.anneal.accepted, watched.anneal.accepted);
  EXPECT_EQ(plain.anneal.rejected, watched.anneal.rejected);
  EXPECT_EQ(plain.anneal.best_iteration, watched.anneal.best_iteration);
  EXPECT_TRUE(plain.best_solution == watched.best_solution);
}

TEST_F(CancelExplorerTest, PreFiredTokenStopsTheRunBeforeAnyWork) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.iterations = 1'000'000;  // would take a while if it ran
  CancelToken token;
  token.cancel();
  config.cancel = &token;
  EXPECT_THROW((void)explorer.run(config), Cancelled);
}

TEST_F(CancelExplorerTest, ExpiredDeadlineUnwindsAsDeadlineExceeded) {
  Explorer explorer(app.graph, arch);
  ExplorerConfig config;
  config.iterations = 100'000'000;  // far beyond any 1 ms budget
  config.warmup_iterations = 0;
  CancelToken token;
  token.set_deadline_after_ms(1);
  config.cancel = &token;
  try {
    (void)explorer.run(config);
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& e) {
    EXPECT_EQ(std::string(e.what()), "deadline exceeded");
  }
}

TEST_F(CancelExplorerTest, EveryMapperHonoursAPreFiredToken) {
  CancelToken token;
  token.cancel();
  ExplorerConfig config;
  config.iterations = 2'000;
  config.cancel = &token;
  for (const std::string& name : mapper_names()) {
    const auto mapper = make_mapper(name);
    EXPECT_THROW((void)mapper->run(app.graph, arch, config), Cancelled)
        << name;
  }
}

TEST_F(CancelExplorerTest, EveryMapperIgnoresANullToken) {
  ExplorerConfig config;
  config.iterations = 300;
  config.warmup_iterations = 50;
  for (const std::string& name : mapper_names()) {
    const auto mapper = make_mapper(name);
    const MapperResult result = mapper->run(app.graph, arch, config);
    EXPECT_GT(result.evaluations, 0) << name;
  }
}

}  // namespace
}  // namespace rdse
