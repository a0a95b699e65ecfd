#include "solver/registry.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace nomad {
namespace {

TEST(RegistryTest, AllNamesInstantiable) {
  for (const std::string& name : SolverNames()) {
    auto solver = MakeSolver(name);
    ASSERT_TRUE(solver.ok()) << name;
    EXPECT_EQ(solver.value()->Name(), name);
  }
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  auto solver = MakeSolver("adamw");
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), StatusCode::kNotFound);
}

// Every solver must fit the planted low-rank dataset.
class AllSolversConvergenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(AllSolversConvergenceTest, ReducesTestRmseSubstantially) {
  const std::string name = GetParam();
  const Dataset ds = MakeTestDataset();
  auto solver = MakeSolver(name).value();
  TrainOptions options = FastTrainOptions();
  if (name == "dsgd" || name == "dsgdpp") options.bold_driver = true;
  if (name == "als" || name == "ccdpp") options.lambda = 0.05;
  const double initial = InitialRmse(ds, options);
  auto result = solver->Train(ds, options);
  ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
  const double final_rmse = result.value().trace.FinalRmse();
  EXPECT_LT(final_rmse, 0.5) << name;
  EXPECT_LT(final_rmse, 0.65 * initial) << name;
  EXPECT_GT(result.value().total_updates, 0) << name;
}

TEST_P(AllSolversConvergenceTest, SingleWorkerAlsoConverges) {
  const std::string name = GetParam();
  const Dataset ds = MakeTestDataset(200, 40, 4000, 11);
  auto solver = MakeSolver(name).value();
  TrainOptions options = FastTrainOptions(/*epochs=*/10, /*workers=*/1);
  if (name == "dsgd" || name == "dsgdpp") options.bold_driver = true;
  if (name == "als" || name == "ccdpp") options.lambda = 0.05;
  auto result = solver->Train(ds, options);
  ASSERT_TRUE(result.ok()) << name;
  EXPECT_LT(result.value().trace.FinalRmse(), 0.6) << name;
}

TEST_P(AllSolversConvergenceTest, TraceTimestampsMonotone) {
  const std::string name = GetParam();
  const Dataset ds = MakeTestDataset(200, 40, 4000, 13);
  auto solver = MakeSolver(name).value();
  TrainOptions options = FastTrainOptions(/*epochs=*/4);
  if (name == "dsgd" || name == "dsgdpp") options.bold_driver = true;
  auto result = solver->Train(ds, options);
  ASSERT_TRUE(result.ok()) << name;
  const auto& pts = result.value().trace.points();
  ASSERT_FALSE(pts.empty()) << name;
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].seconds, pts[i - 1].seconds) << name;
    EXPECT_GE(pts[i].updates, pts[i - 1].updates) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, AllSolversConvergenceTest,
    ::testing::Values("nomad", "serial_sgd", "hogwild", "dsgd", "dsgdpp",
                      "fpsgd", "ccdpp", "als"));

// Epoch-synchronous solvers must produce exactly one trace point per epoch.
class EpochSolversTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EpochSolversTest, OneTracePointPerEpoch) {
  const Dataset ds = MakeTestDataset(150, 30, 2500, 15);
  auto solver = MakeSolver(GetParam()).value();
  TrainOptions options = FastTrainOptions(/*epochs=*/5);
  auto result = solver->Train(ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().trace.size(), 5u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(EpochSolvers, EpochSolversTest,
                         ::testing::Values("serial_sgd", "hogwild", "dsgd",
                                           "dsgdpp", "fpsgd", "ccdpp", "als"));

TEST(SerialSgdTest, DeterministicTrajectory) {
  const Dataset ds = MakeTestDataset(150, 30, 2500, 17);
  auto solver = MakeSolver("serial_sgd").value();
  const TrainOptions options = FastTrainOptions(/*epochs=*/3);
  auto a = solver->Train(ds, options).value();
  auto b = solver->Train(ds, options).value();
  EXPECT_DOUBLE_EQ(a.trace.FinalRmse(), b.trace.FinalRmse());
  EXPECT_EQ(a.w.MaxAbsDiff(b.w), 0.0);
  EXPECT_EQ(a.h.MaxAbsDiff(b.h), 0.0);
}

TEST(DsgdTest, BoldDriverAdaptsWithoutDiverging) {
  const Dataset ds = MakeTestDataset();
  auto solver = MakeSolver("dsgd").value();
  TrainOptions options = FastTrainOptions(/*epochs=*/12);
  options.bold_driver = true;
  auto result = solver->Train(ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().trace.FinalRmse(), 0.5);
}

TEST(AlsTest, ConvergesInFewEpochs) {
  // ALS solves exactly per sweep: 5 epochs should be plenty.
  const Dataset ds = MakeTestDataset();
  auto solver = MakeSolver("als").value();
  TrainOptions options = FastTrainOptions(/*epochs=*/5);
  options.lambda = 0.05;
  auto result = solver->Train(ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().trace.FinalRmse(), 0.35);
}

TEST(CcdppTest, InnerIterationsImproveOrMatch) {
  const Dataset ds = MakeTestDataset();
  auto solver = MakeSolver("ccdpp").value();
  TrainOptions one = FastTrainOptions(/*epochs=*/4);
  one.lambda = 0.05;
  TrainOptions three = one;
  three.ccd_inner_iters = 3;
  const double rmse1 = solver->Train(ds, one).value().trace.FinalRmse();
  const double rmse3 = solver->Train(ds, three).value().trace.FinalRmse();
  EXPECT_LT(rmse3, rmse1 + 0.05);  // more inner work never much worse
}

TEST(FpsgdTest, GridFactorValidated) {
  const Dataset ds = MakeTestDataset(100, 20, 1000, 19);
  auto solver = MakeSolver("fpsgd").value();
  TrainOptions options = FastTrainOptions(/*epochs=*/2);
  options.fpsgd_grid_factor = 0;
  EXPECT_FALSE(solver->Train(ds, options).ok());
}

TEST(HogwildTest, MultiThreadedMatchesQuality) {
  // Hogwild's races may cost some accuracy but it must still fit well.
  const Dataset ds = MakeTestDataset();
  auto solver = MakeSolver("hogwild").value();
  TrainOptions options = FastTrainOptions(/*epochs=*/15, /*workers=*/8);
  auto result = solver->Train(ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().trace.FinalRmse(), 0.5);
}

// One recording path: each registry solver's trace is the kTrace rows of
// its timeline, and a caller's timeline is closed when Train returns.
class SolverRecordingTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SolverRecordingTest, TraceIsTheTimelinesTraceRows) {
  const Dataset ds = MakeTestDataset(200, 40, 3000, 13);
  obs::MetricsRegistry reg;
  obs::RunTimeline timeline(&reg);
  TrainOptions options = FastTrainOptions(/*epochs=*/3, /*workers=*/2);
  options.metrics = &reg;
  options.timeline = &timeline;
  options.metrics_sample_ms = 1;
  options.record_objective = true;
  auto result = MakeSolver(GetParam()).value()->Train(ds, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectTraceRowsAreTheTrace(result.value(), GetParam());
  EXPECT_GT(result.value().trace.points().back().objective, 0.0);
  ExpectCallerTimelineClosed(result.value(), timeline, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, SolverRecordingTest,
                         ::testing::ValuesIn(SolverNames()));

}  // namespace
}  // namespace nomad
