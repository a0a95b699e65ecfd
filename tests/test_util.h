#ifndef NOMAD_TESTS_TEST_UTIL_H_
#define NOMAD_TESTS_TEST_UTIL_H_

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "eval/metrics.h"
#include "obs/timeseries.h"
#include "solver/solver.h"
#include "util/logging.h"

namespace nomad {

/// Small planted low-rank dataset every solver can fit quickly: true rank 4,
/// noise 0.1, ~6k ratings. Initial test RMSE is ≈1.0; a converged model
/// reaches ≲0.3.
inline Dataset MakeTestDataset(int32_t rows = 300, int32_t cols = 60,
                               int64_t nnz = 6000, uint64_t seed = 9) {
  SyntheticConfig c;
  c.name = "test-planted";
  c.rows = rows;
  c.cols = cols;
  c.nnz = nnz;
  c.true_rank = 4;
  c.noise_std = 0.1;
  c.test_fraction = 0.15;
  c.seed = seed;
  auto ds = GenerateSynthetic(c);
  NOMAD_CHECK(ds.ok()) << ds.status().ToString();
  return std::move(ds).value();
}

/// Options tuned for the MakeTestDataset scale: rank 8, mild regularization,
/// schedule sized for O(10) epochs.
inline TrainOptions FastTrainOptions(int epochs = 15, int workers = 4) {
  TrainOptions o;
  o.rank = 8;
  o.lambda = 0.02;
  o.alpha = 0.06;
  o.beta = 0.01;
  o.num_workers = workers;
  o.max_epochs = epochs;
  o.max_seconds = -1.0;
  o.seed = 42;
  return o;
}

/// Item-rich planted dataset for distributed-simulation comparisons: with
/// 300 items there are enough tokens in flight to keep 8-32 virtual workers
/// busy — the regime of the paper's datasets (Netflix: 17,770 items / 128
/// workers ≈ 139 tokens per worker).
inline Dataset MakeItemRichDataset(uint64_t seed = 90) {
  SyntheticConfig c;
  c.name = "test-item-rich";
  c.rows = 600;
  c.cols = 300;
  c.nnz = 12000;
  c.true_rank = 4;
  c.noise_std = 0.1;
  c.test_fraction = 0.15;
  c.seed = seed;
  auto ds = GenerateSynthetic(c);
  NOMAD_CHECK(ds.ok()) << ds.status().ToString();
  return std::move(ds).value();
}

/// Compute-cost calibration for mini datasets (see DESIGN.md): the minis
/// carry ~1/10 the ratings-per-item of the paper's datasets and the tests
/// run at k=8 instead of k=100, so the per-update cost constant is raised
/// to keep the compute/communication ratio — the paper's Sec. 3.2 balance
/// a·|Ω|k/np vs c·k — in the same regime as the physical experiments.
inline constexpr double kCalibratedUpdateSecondsPerDim = 4e-7;

/// Initial test RMSE of the common starting point (before any training).
inline double InitialRmse(const Dataset& ds, const TrainOptions& options) {
  FactorMatrix w;
  FactorMatrix h;
  InitFactors(ds, options, &w, &h);
  return Rmse(ds.test, w, h);
}

/// The kTrace rows of the result's timeline, in order, are its trace, field
/// by field.
inline void ExpectTraceRowsAreTheTrace(const TrainResult& r,
                                       const std::string& who) {
  std::vector<obs::TimelinePoint> rows;
  for (const obs::TimelinePoint& row : r.timeline) {
    if (row.kind == obs::TimelineKind::kTrace) rows.push_back(row);
  }
  const std::vector<TracePoint>& points = r.trace.points();
  ASSERT_FALSE(points.empty()) << who;
  ASSERT_EQ(rows.size(), points.size()) << who;
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(rows[i].seconds, points[i].seconds) << who << " row " << i;
    EXPECT_EQ(rows[i].updates, points[i].updates) << who << " row " << i;
    EXPECT_EQ(rows[i].test_rmse, points[i].test_rmse) << who << " row " << i;
    EXPECT_EQ(rows[i].objective, points[i].objective) << who << " row " << i;
  }
}

/// The caller's timeline holds exactly what the result reports, and nothing
/// (no late sampler row) lands in it once Train has returned.
inline void ExpectCallerTimelineClosed(const TrainResult& r,
                                       const obs::RunTimeline& timeline,
                                       const std::string& who) {
  const size_t rows = timeline.size();
  EXPECT_EQ(r.timeline.size(), rows) << who;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(timeline.size(), rows) << who << ": rows added after Train";
}

}  // namespace nomad

#endif  // NOMAD_TESTS_TEST_UTIL_H_
