#ifndef NOMAD_DATA_SYNTHETIC_H_
#define NOMAD_DATA_SYNTHETIC_H_

#include <string>

#include "data/dataset.h"
#include "util/status.h"

namespace nomad {

/// Configuration for the synthetic dataset generator.
///
/// The generator plants a low-rank ground truth (Sec. 5.5 of the paper):
/// W*, H* are drawn i.i.d. N(0, 1/sqrt(true_rank)); each observed rating is
/// ⟨w*_i, h*_j⟩ + N(0, noise_std²). Observed positions follow a bipartite
/// configuration model with Zipf-distributed user and item degrees, which
/// reproduces the power-law rating profiles of the real datasets the paper
/// uses.
struct SyntheticConfig {
  std::string name = "synthetic";
  int32_t rows = 1000;
  int32_t cols = 100;
  int64_t nnz = 20000;  // target; the realized count can be slightly lower
                        // because within-user duplicate positions are dropped
  double user_zipf = 0.6;
  double item_zipf = 0.6;
  int true_rank = 10;
  double noise_std = 0.1;
  double test_fraction = 0.1;
  uint64_t seed = 42;
};

/// Generates a planted-factor dataset per `config`. Deterministic given the
/// seed.
Result<Dataset> GenerateSynthetic(const SyntheticConfig& config);

/// Binary variant for logistic-loss matrix completion (the paper's Sec. 6
/// direction): identical planted structure, but every observed value is
/// mapped to sign(⟨w*_i,h*_j⟩ + noise) ∈ {-1, +1}.
Result<Dataset> GenerateSyntheticBinary(const SyntheticConfig& config);

/// Shape-preserving miniatures of the paper's three benchmark datasets
/// (Table 2). Row:column ratios and *relative* ratings-per-item between the
/// three datasets (Netflix 5575 : Yahoo 404 : Hugewiki 68635) are preserved
/// at roughly 1/10 of the absolute ratings-per-item; `scale` multiplies
/// rows, cols and nnz together (preserving ratings-per-item).
SyntheticConfig NetflixMiniConfig(double scale = 1.0);
SyntheticConfig YahooMiniConfig(double scale = 1.0);
SyntheticConfig HugewikiMiniConfig(double scale = 1.0);

/// The miniature named "netflix", "yahoo" or "hugewiki" (the CLIs'
/// `--preset`) at `scale`; InvalidArgument listing the known names for any
/// other name.
Result<SyntheticConfig> MiniConfigByName(const std::string& name,
                                         double scale = 1.0);

/// The Sec. 5.5 weak-scaling workload: the number of items is fixed, the
/// number of users (and hence ratings) grows proportionally to `machines`.
SyntheticConfig WeakScalingConfig(int machines, double scale = 1.0);

/// The original datasets' statistics as published in Table 2, for printing
/// next to our miniatures.
struct PaperDatasetStats {
  const char* name;
  int64_t rows;
  int64_t cols;
  int64_t nnz;
};
inline constexpr PaperDatasetStats kPaperTable2[] = {
    {"Netflix", 2649429, 17770, 99072112},
    {"Yahoo! Music", 1999990, 624961, 252800275},
    {"Hugewiki", 50082603, 39780, 2736496604},
};

}  // namespace nomad

#endif  // NOMAD_DATA_SYNTHETIC_H_
