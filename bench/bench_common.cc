#include "bench_common.h"

#include <cstdlib>

#include "data/loader.h"
#include "data/splitter.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace nomad {
namespace bench {

Dataset GetDataset(const std::string& name, double scale) {
  SyntheticConfig config;
  if (name == "netflix") {
    config = NetflixMiniConfig(scale);
  } else if (name == "yahoo") {
    config = YahooMiniConfig(scale);
  } else if (name == "hugewiki") {
    config = HugewikiMiniConfig(scale);
  } else {
    NOMAD_CHECK(false) << "unknown dataset: " << name;
  }
  auto ds = GenerateSynthetic(config);
  NOMAD_CHECK(ds.ok()) << ds.status().ToString();
  return std::move(ds).value();
}

Result<Dataset> LoadDatasetFromFlags(const Flags& flags) {
  const std::string input = flags.GetString("input");
  const std::string preset = flags.GetString("preset");
  if (!input.empty()) {
    auto matrix = LoadRatingsFile(input, flags.GetBool("one-based", false));
    if (!matrix.ok()) return matrix.status();
    return SplitTrainTest(matrix.value(),
                          flags.GetDouble("test-fraction", 0.1),
                          static_cast<uint64_t>(flags.GetInt("seed", 1)),
                          input);
  }
  if (!preset.empty()) {
    return GetDataset(preset, flags.GetDouble("scale", 0.25));
  }
  return Status::InvalidArgument("pass --input <file> or --preset <name>");
}

std::string TestRmseText(const Dataset& ds, double rmse) {
  if (ds.test.nnz() == 0) return "test RMSE n/a (empty test set)";
  return StrFormat("test RMSE %.4f", rmse);
}

MiniParams GetMiniParams(const std::string& name) {
  // Planted miniature analogue of Table 1. The λ ordering follows the
  // paper (Yahoo's λ is the largest, Hugewiki's the smallest).
  MiniParams p;
  if (name == "netflix") {
    p = {0.02, 0.12, 0.005};
  } else if (name == "yahoo") {
    p = {0.04, 0.08, 0.005};
  } else if (name == "hugewiki") {
    p = {0.01, 0.12, 0.0};
  } else {
    NOMAD_CHECK(false) << "unknown dataset: " << name;
  }
  return p;
}

SimOptions MakeSimOptions(Preset preset, const std::string& dataset,
                          const std::string& solver, int machines, int rank,
                          int max_epochs) {
  const MiniParams params = GetMiniParams(dataset);
  SimOptions o;
  o.train.rank = rank;
  o.train.lambda = params.lambda;
  o.train.alpha = params.alpha;
  o.train.beta = params.beta;
  o.train.max_epochs = max_epochs;
  o.train.seed = 20140424;  // arXiv v2 date of the paper
  o.train.bold_driver = (solver == "sim_dsgd" || solver == "sim_dsgdpp");

  o.cluster.machines = machines;
  // Per-update cost pinned to the paper's k=100 figure (0.4 µs).
  o.cluster.update_seconds_per_dim = 4e-7 / rank;
  const bool has_comm_threads =
      (solver == "sim_nomad" || solver == "sim_dsgdpp");
  if (preset == Preset::kHpc) {
    // Stampede: every solver runs 4 computation threads (Sec. 5.3);
    // NOMAD/DSGD++'s communication threads come from the idle 12 cores.
    o.cluster.cores = 4;
    o.cluster.compute_cores = 4;
    o.network = HpcNetwork();
    o.flush_delay = 5e-6;
  } else {
    // AWS m1.xlarge: 4 cores total; solvers with dedicated communication
    // threads compute on 2 (Sec. 5.4).
    o.cluster.cores = 4;
    o.cluster.compute_cores = has_comm_threads ? 2 : 4;
    o.network = CommodityNetwork();
    o.flush_delay = 3e-5;
  }
  // Scaled-down analogue of the paper's 100-token batches (Sec. 3.5): the
  // minis have ~100x fewer items per machine pair, so batches of 100 would
  // never fill and the flush timer would gate every hop.
  o.batch_size = preset == Preset::kHpc ? 16 : 4;
  o.eval_interval = 1e-4;
  return o;
}

void EmitTrace(TableWriter* table, const std::string& dataset,
               const std::string& algorithm, const std::string& setting,
               const Trace& trace, int cores_total) {
  for (const TracePoint& p : trace.points()) {
    table->AddRow({dataset, algorithm, setting, StrFormat("%.6g", p.seconds),
                   StrFormat("%.6g", p.seconds * cores_total),
                   StrFormat("%lld", static_cast<long long>(p.updates)),
                   StrFormat("%.5f", p.test_rmse)});
  }
}

void FinishBench(const Flags& flags, const std::string& bench_name,
                 TableWriter* table) {
  table->Print();
  std::string out = flags.GetString("out");
  if (out.empty() && std::getenv("NOMAD_BENCH_OUT") != nullptr) {
    out = std::string(std::getenv("NOMAD_BENCH_OUT")) + "/" + bench_name +
          ".tsv";
  }
  if (!out.empty()) {
    const Status s = table->WriteTsv(out);
    if (!s.ok()) {
      NOMAD_LOG(kWarning) << "failed to write " << out << ": "
                          << s.ToString();
    } else {
      NOMAD_LOG(kInfo) << bench_name << " results written to " << out;
    }
  }
}

BenchArgs ParseBenchArgs(int argc, char** argv, int default_epochs) {
  BenchArgs args;
  NOMAD_CHECK(args.flags.Parse(argc, argv).ok());
  args.scale = args.flags.GetDouble("scale", 0.25);
  args.rank = static_cast<int>(args.flags.GetInt("rank", 16));
  args.epochs =
      static_cast<int>(args.flags.GetInt("epochs", default_epochs));
  return args;
}

}  // namespace bench
}  // namespace nomad
