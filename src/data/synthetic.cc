#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "data/splitter.h"
#include "linalg/dense_ops.h"
#include "linalg/factor_matrix.h"
#include "util/logging.h"
#include "util/rng.h"

namespace nomad {

namespace {

// Distributes `total` degree among `n` nodes proportionally to Zipf(s)
// weights over a random permutation of the nodes (so node id does not
// correlate with popularity). Every node receives at least `min_degree`
// when total allows.
std::vector<int64_t> SampleDegrees(int32_t n, int64_t total, double zipf_s,
                                   int64_t min_degree, Rng* rng) {
  std::vector<double> weight(static_cast<size_t>(n));
  double sum = 0.0;
  for (int32_t i = 0; i < n; ++i) {
    weight[static_cast<size_t>(i)] =
        std::pow(static_cast<double>(i + 1), -zipf_s);
    sum += weight[static_cast<size_t>(i)];
  }
  std::vector<int> perm = rng->Permutation(n);
  std::vector<int64_t> degree(static_cast<size_t>(n), 0);
  int64_t assigned = 0;
  for (int32_t i = 0; i < n; ++i) {
    const int node = perm[static_cast<size_t>(i)];
    int64_t d = static_cast<int64_t>(
        std::floor(weight[static_cast<size_t>(i)] / sum *
                   static_cast<double>(total)));
    d = std::max(d, min_degree);
    degree[static_cast<size_t>(node)] = d;
    assigned += d;
  }
  // Adjust the most popular node so totals match exactly (or trim evenly if
  // we overshot badly, which only happens when min_degree dominates).
  int64_t diff = total - assigned;
  for (int32_t i = 0; i < n && diff != 0; ++i) {
    const int node = perm[static_cast<size_t>(i)];
    const int64_t delta =
        diff > 0 ? diff
                 : -std::min(-diff, degree[static_cast<size_t>(node)] -
                                        min_degree);
    degree[static_cast<size_t>(node)] += delta;
    diff -= delta;
  }
  return degree;
}

}  // namespace

Result<Dataset> GenerateSynthetic(const SyntheticConfig& config) {
  if (config.rows <= 0 || config.cols <= 0) {
    return Status::InvalidArgument("rows/cols must be positive");
  }
  if (config.nnz < 0 ||
      config.nnz > static_cast<int64_t>(config.rows) * config.cols) {
    return Status::InvalidArgument("nnz out of range");
  }
  if (config.true_rank <= 0) {
    return Status::InvalidArgument("true_rank must be positive");
  }
  Rng rng(config.seed);

  // Ground-truth factors (Sec. 5.5: isotropic Gaussian; we scale by
  // 1/sqrt(rank) so ratings are O(1) regardless of rank).
  const int kr = config.true_rank;
  FactorMatrix w_true(config.rows, kr);
  FactorMatrix h_true(config.cols, kr);
  const double stddev = 1.0 / std::sqrt(static_cast<double>(kr));
  w_true.InitGaussian(&rng, stddev);
  h_true.InitGaussian(&rng, stddev);

  // Degree sequences.
  std::vector<int64_t> user_deg =
      SampleDegrees(config.rows, config.nnz, config.user_zipf, 1, &rng);
  std::vector<int64_t> item_deg =
      SampleDegrees(config.cols, config.nnz, config.item_zipf, 1, &rng);

  // Configuration model: build the item stub list, shuffle, then hand stubs
  // to users. Within-user duplicate items are skipped (slightly reducing
  // realized nnz, as documented in SyntheticConfig).
  std::vector<int32_t> stubs;
  stubs.reserve(static_cast<size_t>(config.nnz));
  for (int32_t j = 0; j < config.cols; ++j) {
    for (int64_t c = 0; c < item_deg[static_cast<size_t>(j)]; ++c) {
      stubs.push_back(j);
    }
  }
  rng.Shuffle(&stubs);

  std::vector<Rating> ratings;
  ratings.reserve(stubs.size());
  size_t cursor = 0;
  std::unordered_set<int32_t> seen;
  for (int32_t i = 0; i < config.rows && cursor < stubs.size(); ++i) {
    seen.clear();
    const int64_t want = user_deg[static_cast<size_t>(i)];
    for (int64_t c = 0; c < want && cursor < stubs.size(); ++c) {
      const int32_t j = stubs[cursor++];
      if (!seen.insert(j).second) continue;  // duplicate within this user
      const double mean = Dot(w_true.Row(i), h_true.Row(j), kr);
      const double value = mean + rng.Gaussian(0.0, config.noise_std);
      ratings.push_back(
          Rating{i, j, static_cast<float>(value)});
    }
  }

  auto all = SparseMatrix::Build(config.rows, config.cols, std::move(ratings));
  if (!all.ok()) return all.status();
  return SplitTrainTest(all.value(), config.test_fraction, config.seed + 1,
                        config.name);
}

Result<Dataset> GenerateSyntheticBinary(const SyntheticConfig& config) {
  auto real_valued = GenerateSynthetic(config);
  if (!real_valued.ok()) return real_valued.status();
  Dataset& ds = real_valued.value();
  const auto signify = [](const SparseMatrix& m) {
    std::vector<Rating> flipped;
    flipped.reserve(static_cast<size_t>(m.nnz()));
    for (const Rating& r : m.ToCoo()) {
      flipped.push_back(Rating{r.row, r.col, r.value >= 0 ? 1.0f : -1.0f});
    }
    return SparseMatrix::Build(m.rows(), m.cols(), std::move(flipped))
        .value();
  };
  ds.name = config.name + "-binary";
  ds.train = signify(ds.train);
  ds.test = signify(ds.test);
  return std::move(real_valued).value();
}

namespace {

SyntheticConfig ScaledConfig(const char* name, double rows, double cols,
                             double ratings_per_item, double scale,
                             double user_zipf, double item_zipf,
                             uint64_t seed) {
  SyntheticConfig c;
  c.name = name;
  c.rows = std::max<int32_t>(16, static_cast<int32_t>(rows * scale));
  c.cols = std::max<int32_t>(8, static_cast<int32_t>(cols * scale));
  c.nnz = static_cast<int64_t>(ratings_per_item * c.cols);
  c.nnz = std::min<int64_t>(c.nnz,
                            static_cast<int64_t>(c.rows) * c.cols / 2);
  c.user_zipf = user_zipf;
  c.item_zipf = item_zipf;
  c.seed = seed;
  return c;
}

}  // namespace

// Miniature shapes. Relative ratings-per-item between the three datasets
// follows the paper's ordering (Hugewiki 68,635 >> Netflix 5,575 >> Yahoo
// 404) with compressed magnitudes (2000 : 558 : 40) so that the largest
// mini stays benchable; the item counts are kept high enough that a
// simulated 32-64 machine cluster has several tokens in flight per worker,
// as the real datasets do (Netflix: 17,770 items / 128 workers). Row:col
// ratios follow Table 2's ordering (Hugewiki most row-heavy, Yahoo least).
SyntheticConfig NetflixMiniConfig(double scale) {
  return ScaledConfig("netflix-mini", /*rows=*/24000, /*cols=*/1920,
                      /*ratings_per_item=*/558, scale, 0.7, 0.7, 101);
}

SyntheticConfig YahooMiniConfig(double scale) {
  return ScaledConfig("yahoo-mini", /*rows=*/16000, /*cols=*/5000,
                      /*ratings_per_item=*/40, scale, 0.6, 0.6, 102);
}

SyntheticConfig HugewikiMiniConfig(double scale) {
  return ScaledConfig("hugewiki-mini", /*rows=*/60000, /*cols=*/2400,
                      /*ratings_per_item=*/2000, scale, 0.5, 0.4, 103);
}

Result<SyntheticConfig> MiniConfigByName(const std::string& name,
                                         double scale) {
  if (name == "netflix") return NetflixMiniConfig(scale);
  if (name == "yahoo") return YahooMiniConfig(scale);
  if (name == "hugewiki") return HugewikiMiniConfig(scale);
  return Status::InvalidArgument("unknown preset '" + name +
                                 "' (known: netflix, yahoo, hugewiki)");
}

SyntheticConfig WeakScalingConfig(int machines, double scale) {
  NOMAD_CHECK_GT(machines, 0);
  // Sec. 5.5: items fixed (17,770 in the paper), users and ratings grow
  // proportionally to the number of machines.
  SyntheticConfig c;
  c.name = "weak-scaling-x" + std::to_string(machines);
  c.cols = std::max<int32_t>(8, static_cast<int32_t>(1777 * scale));
  c.rows = std::max<int32_t>(16,
                             static_cast<int32_t>(48000 * scale) * machines);
  c.nnz = static_cast<int64_t>(990000.0 * scale * machines);
  c.nnz = std::min<int64_t>(c.nnz, static_cast<int64_t>(c.rows) * c.cols / 2);
  c.user_zipf = 0.7;
  c.item_zipf = 0.7;
  c.seed = 500 + static_cast<uint64_t>(machines);
  return c;
}

}  // namespace nomad
