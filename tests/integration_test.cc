// End-to-end integration tests tying the substrates together: data
// generation -> persistence -> training -> evaluation, plus the qualitative
// cross-solver orderings the paper's figures rest on.

#include <cstdio>

#include <gtest/gtest.h>

#include "data/loader.h"
#include "data/splitter.h"
#include "sim/cluster.h"
#include "solver/registry.h"
#include "test_util.h"

namespace nomad {
namespace {

TEST(IntegrationTest, GenerateSaveLoadTrainPipeline) {
  // Generate, persist as a ratings text file, reload, re-split, train.
  const Dataset original = MakeTestDataset(200, 40, 4000, 71);
  const std::string path = ::testing::TempDir() + "/pipeline.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    for (const Rating& r : original.train.ToCoo()) {
      std::fprintf(f, "%d %d %.9g\n", r.row, r.col, r.value);
    }
    ASSERT_EQ(std::fclose(f), 0);
  }
  auto reloaded = LoadRatingsFile(path, /*one_based=*/false);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().ToCoo(), original.train.ToCoo());  // %.9g is exact
  auto ds = SplitTrainTest(reloaded.value(), 0.1, 99, "reloaded");
  ASSERT_TRUE(ds.ok());
  auto solver = MakeSolver("nomad").value();
  TrainOptions options = FastTrainOptions(/*epochs=*/8);
  auto result = solver->Train(ds.value(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().trace.FinalRmse(), 0.7);
}

TEST(IntegrationTest, AllSolversStartFromIdenticalPoint) {
  // Sec. 5.1: "All algorithms were initialized with the same initial
  // parameters." InitFactors must be solver-independent.
  const Dataset ds = MakeTestDataset(100, 20, 1000, 73);
  const TrainOptions options = FastTrainOptions();
  FactorMatrix w1, h1, w2, h2;
  InitFactors(ds, options, &w1, &h1);
  InitFactors(ds, options, &w2, &h2);
  EXPECT_EQ(w1.MaxAbsDiff(w2), 0.0);
  EXPECT_EQ(h1.MaxAbsDiff(h2), 0.0);
}

TEST(IntegrationTest, NomadBeatsBulkSyncOnCommoditySim) {
  // The headline qualitative result (Fig. 11): on a commodity network,
  // sim_nomad reaches a given RMSE in less virtual time than sim_dsgd.
  const Dataset ds = MakeItemRichDataset();
  SimOptions options;
  options.train = FastTrainOptions(/*epochs=*/10);
  options.train.bold_driver = true;
  options.cluster.machines = 8;
  options.cluster.cores = 4;
  options.cluster.compute_cores = 2;
  options.cluster.update_seconds_per_dim = kCalibratedUpdateSecondsPerDim;
  options.network = CommodityNetwork();
  options.eval_interval = 1e-3;
  options.batch_size = 8;
  options.flush_delay = 5e-5;

  auto nomad_result =
      MakeSimSolver("sim_nomad").value()->Train(ds, options).value();
  auto dsgd_result =
      MakeSimSolver("sim_dsgd").value()->Train(ds, options).value();

  const double target = 0.5;
  const double nomad_t = nomad_result.train.trace.TimeToRmse(target);
  const double dsgd_t = dsgd_result.train.trace.TimeToRmse(target);
  ASSERT_GT(nomad_t, 0.0) << "sim_nomad never reached RMSE " << target;
  if (dsgd_t > 0.0) {
    EXPECT_LT(nomad_t, dsgd_t);
  }
}

TEST(IntegrationTest, ThroughputScalesWithSimulatedWorkers) {
  // Fig. 10-style check: total update throughput (updates per virtual
  // second) grows when machines are added on the HPC preset.
  const Dataset ds = MakeItemRichDataset();
  auto run = [&](int machines) {
    SimOptions options;
    options.train = FastTrainOptions(/*epochs=*/-1);
    options.train.max_epochs = -1;
    options.train.max_seconds = 0.2;
    options.cluster.update_seconds_per_dim = kCalibratedUpdateSecondsPerDim;
    options.cluster.machines = machines;
    options.cluster.cores = 4;
    options.cluster.compute_cores = 2;
    options.network = HpcNetwork();
    options.eval_interval = 5e-4;
    options.batch_size = 8;
    options.flush_delay = 5e-6;
    return MakeSimSolver("sim_nomad")
        .value()
        ->Train(ds, options)
        .value()
        .train.total_updates;
  };
  const int64_t updates1 = run(1);
  const int64_t updates8 = run(8);
  EXPECT_GT(updates8, updates1 * 3) << "expected ≥3x scaling from 1 to 8 "
                                       "machines on the HPC preset";
}

TEST(IntegrationTest, SolverComparisonSharesDataset) {
  // Running two solvers back-to-back must not mutate the dataset.
  const Dataset ds = MakeTestDataset(150, 30, 2500, 75);
  const auto coo_before = ds.train.ToCoo();
  TrainOptions options = FastTrainOptions(/*epochs=*/3);
  for (const char* name : {"nomad", "dsgd", "ccdpp"}) {
    auto solver = MakeSolver(name).value();
    ASSERT_TRUE(solver->Train(ds, options).ok()) << name;
  }
  EXPECT_EQ(ds.train.ToCoo(), coo_before);
}

}  // namespace
}  // namespace nomad
