#ifndef NOMAD_BENCH_BENCH_COMMON_H_
#define NOMAD_BENCH_BENCH_COMMON_H_

#include <string>

#include "data/synthetic.h"
#include "sim/cluster.h"
#include "util/flags.h"
#include "util/table_writer.h"

namespace nomad {
namespace bench {

/// Which physical testbed of the paper a simulated run models.
enum class Preset {
  kHpc,        // Stampede normal queue: 16-core nodes, 4 computation
               // threads per solver, InfiniBand (Sec. 5.3)
  kCommodity,  // AWS m1.xlarge: 4 cores, 1 Gb/s; NOMAD/DSGD++ use 2 compute
               // + 2 communication cores, DSGD/CCD++ use all 4 (Sec. 5.4)
};

/// Mini-dataset hyper-parameters, the Table 1 analogue for our synthetic
/// miniatures (planted ratings are ~N(0, 0.5), unlike the 1-5 star
/// originals, so α differs from the paper's values).
struct MiniParams {
  double lambda = 0.02;
  double alpha = 0.06;
  double beta = 0.01;
};

/// Looks up the miniature of a paper dataset ("netflix", "yahoo",
/// "hugewiki") at the given scale and generates it; InvalidArgument
/// listing the known names for any other name (MiniConfigByName).
Result<Dataset> LoadPreset(const std::string& name, double scale);

/// LoadPreset for the bench binaries, which name their datasets in code:
/// aborts on a bad name.
Dataset GetDataset(const std::string& name, double scale);

/// The dataset-flag contract shared by the CLIs (nomad_cli,
/// dist_nomad_cli): `--input <ratings file>` (honoring `--one-based`,
/// `--test-fraction`, `--seed` for the split) or `--preset <name>`
/// (honoring `--scale`). One implementation, so both CLIs always load
/// identical train/test splits from identical flags — the dist workflow
/// evaluates dist-trained models with nomad_cli and relies on that.
Result<Dataset> LoadDatasetFromFlags(const Flags& flags);

/// The RMSE column of the CLIs' trace lines: "test RMSE 0.1234", or
/// "test RMSE n/a (empty test set)" when `ds` holds no test ratings — an
/// RMSE over nothing is absent, not a zero.
std::string TestRmseText(const Dataset& ds, double rmse);

/// Tuned step/regularization parameters per mini dataset.
MiniParams GetMiniParams(const std::string& name);

/// Builds the simulated-cluster options for one experiment run.
///
/// Calibration: update_seconds_per_dim is set to (4e-7 / rank) seconds so
/// one rating update costs 0.4 µs regardless of the benchmark rank — the
/// same per-update cost as the paper's k=100 runs on Stampede. Combined
/// with the shape-preserving mini datasets this keeps the paper's
/// compute/communication balance (Sec. 3.2: a·|Ω|k/np vs c·k) at 1/10
/// scale. Batch size and flush delay are scaled to mini-dataset token
/// counts (the paper's batch of 100 suits tens of thousands of items).
SimOptions MakeSimOptions(Preset preset, const std::string& dataset,
                          const std::string& solver, int machines, int rank,
                          int max_epochs);

/// Standard result emission: one row per trace point, plus writes TSV next
/// to the binary under bench_out/<name>.tsv when --out is passed (or
/// always, into the default path, when NOMAD_BENCH_OUT is set).
void EmitTrace(TableWriter* table, const std::string& dataset,
               const std::string& algorithm, const std::string& setting,
               const Trace& trace, int cores_total);

/// Final boilerplate of every bench binary: print the table and optionally
/// persist it.
void FinishBench(const Flags& flags, const std::string& bench_name,
                 TableWriter* table);

/// Common flag plumbing: --scale (default 0.25), --rank (default 16),
/// --epochs (default per-bench), --out (TSV path).
struct BenchArgs {
  double scale = 0.25;
  int rank = 16;
  int epochs = 0;  // 0 -> use the bench's default
  Flags flags;
};

BenchArgs ParseBenchArgs(int argc, char** argv, int default_epochs);

}  // namespace bench
}  // namespace nomad

#endif  // NOMAD_BENCH_BENCH_COMMON_H_
