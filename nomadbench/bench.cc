// nomadbench — the repository benchmark program.
//
//   nomadbench gen --workload W --seed N --dir DIR [--scale S]
//       Generates the workload's ratings from the seed and writes them to
//       DIR/ratings.txt. Nothing here is timed.
//   nomadbench run --workload W --seed N --seconds S --trace 0|1 --dir DIR
//                  [--scale S] [--git-sha SHA] [--rmse-ceiling-frac F]
//                  [--corrupt-model]
//       Runs the workload on DIR/ratings.txt and prints a human-readable
//       report followed, as its last line, by one JSON object:
//       {"correct", "attempted", "failed", "metrics"}. --trace 0 measures
//       the end-to-end metrics; --trace 1 is the separate traced run that
//       measures the per-layer metrics. --rmse-ceiling-frac and
//       --corrupt-model exist for the benchmark's self-tests: they must trip
//       its gates.
//
// Every workload is one pipeline with its own shape: a training job (load
// the ratings text file, split, train, evaluate, save the model), repeated
// while the training share of --seconds lasts, then the saved model served
// open-loop on a ladder of query rates with ratings streaming in.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

#include "common.h"
#include "data/loader.h"
#include "data/splitter.h"
#include "eval/metrics.h"
#include "linalg/simd_ops.h"
#include "net/dist_nomad.h"
#include "nomad/nomad_solver.h"
#include "obs/metrics.h"
#include "probes.h"
#include "util/flags.h"
#include "util/rng.h"

namespace nomadbench {

// ---- workload table ----
//
// The shapes keep the paper's ratings-per-item contrast (Sec. 5.3): the
// Netflix shape has hundreds of ratings per item, so each token visit
// carries over a hundred SGD updates and the kernel dominates; the
// serve_live catalog has ~10, so its short training job is hand-off bound.
// RMSE ceilings are fractions of the RMS of the test ratings, the RMSE of
// predicting 0. Only mf_dense generalises below that level. On serve_live
// (a few ratings per user and item at k=32) the model fits its training
// ratings (to ~0.97 of their RMS) but test RMSE only falls from the random
// initial factors to just above RMS(test): there time_to_rmse_s times that
// fall, not convergence, and final_test_rmse gates only against
// divergence. The training-RMSE ceiling is what catches a solver that
// stops learning.
bool FindWorkload(const std::string& name, double scale, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "mf_dense") {
    // Kernel-bound training; text loading is a large share of the job. Its
    // traced run also trains on a 2-rank loopback world for the net layer.
    w.data = nomad::NetflixMiniConfig(scale);
    w.net_probe = true;
    w.epochs = 24;
    w.rmse_ceiling_frac = 0.80;
    w.train_rmse_ceiling_frac = 0.75;
    w.base_qps = 5000;
  } else if (name == "serve_live") {
    // A large catalog: 100k items x k=32 f64 is 25.6 MB of item rows, more
    // than L2 and less than L3, so the top-N scan dominates. Its training
    // job is short (few ratings per item); most of the run serves. One
    // worker: with three, hand-off on this sparse data made the job's
    // update rate swing with the host's scheduling.
    w.data.name = "serve-catalog";
    w.data.rows = static_cast<int32_t>(50000 * scale);
    w.data.cols = static_cast<int32_t>(100000 * scale);
    w.data.nnz = static_cast<int64_t>(1000000 * scale);
    w.epochs = 6;
    w.rmse_ceiling_frac = 1.05;
    w.train_rmse_ceiling_frac = 0.985;
    w.train_share = 0.4;
    w.workers = 1;
    w.base_qps = 150;
  } else {
    return false;
  }
  w.data.nnz = std::max<int64_t>(w.data.nnz, 1000);
  *out = w;
  return true;
}

namespace {

// ---- arguments ----

const std::vector<std::string> kGenFlags = {"workload", "seed", "dir", "scale"};
const std::vector<std::string> kRunFlags = {
    "workload", "seed", "dir", "scale", "seconds", "trace",
    "git-sha",  "rmse-ceiling-frac", "corrupt-model"};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "nomadbench: %s\n", msg.c_str());
  std::exit(2);
}

// ---- gen ----

int Gen(const nomad::Flags& args) {
  Workload wl;
  if (!FindWorkload(args.GetString("workload"), args.GetDouble("scale", 1.0),
                    &wl)) {
    Die("unknown workload " + args.GetString("workload"));
  }
  nomad::SyntheticConfig config = wl.data;
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  config.test_fraction = 0.0;
  auto ds = nomad::GenerateSynthetic(config);
  if (!ds.ok()) Die("generate: " + ds.status().ToString());
  const std::string path = args.GetString("dir") + "/ratings.txt";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  std::vector<nomad::Rating> coo = ds.value().train.ToCoo();
  // File order is shuffled so the loader sees ratings as a log would.
  nomad::Rng rng(config.seed ^ 0x5eedULL);
  rng.Shuffle(&coo);
  for (const nomad::Rating& r : coo) {
    std::fprintf(f, "%d %d %.5f\n", r.row, r.col, r.value);
  }
  if (std::fclose(f) != 0) Die("write failed: " + path);
  std::printf("generated %s: %d x %d, %zu ratings\n", path.c_str(),
              ds.value().rows, ds.value().cols, coo.size());
  return 0;
}

// ---- run: one training job ----

struct JobResult {
  std::string error;  // first failure; empty when every gate passed
  int64_t attempted = 0;
  int64_t failed = 0;
  double peak_rss_mb = 0;  // of the job, from a trimmed heap
  double load_s = 0, split_s = 0, train_wall_s = 0, train_s = 0, eval_s = 0,
         save_s = 0, job_s = 0;
  int64_t ratings = 0, train_nnz = 0, test_nnz = 0, updates = 0;
  double window_rate = 0;    // middle mean of the trace windows' rates
  double updates_to_rmse = 0, time_to_rmse_s = 0, final_rmse = 0;
  double test_rms = 0;     // RMS of the test ratings: RMSE of predicting 0
  double train_rmse = 0;   // the saved model on its own training ratings
  double train_rms = 0;    // RMS of the training ratings
  double rmse_target = 0;  // test RMSE that ends time_to_rmse_s
  std::vector<nomad::TracePoint> trace;
  nomad::obs::MetricsSnapshot snapshot;
  nomad::Model model;
  nomad::Dataset data;
};

// Updates done when the trace first reaches `target`, linearly
// interpolated between the trace points around the crossing; NaN if never.
double UpdatesToRmse(const std::vector<nomad::TracePoint>& trace,
                     double target) {
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].test_rmse > target) continue;
    if (i == 0) return static_cast<double>(trace[0].updates);
    const nomad::TracePoint& a = trace[i - 1];
    const nomad::TracePoint& b = trace[i];
    const double f = (a.test_rmse - target) / (a.test_rmse - b.test_rmse);
    return static_cast<double>(a.updates) +
           f * static_cast<double>(b.updates - a.updates);
  }
  return std::nan("");
}

// Update rate of each window between consecutive trace points.
std::vector<double> WindowRates(const std::vector<nomad::TracePoint>& trace) {
  std::vector<double> rates;
  for (size_t i = 1; i < trace.size(); ++i) {
    const double dt = trace[i].seconds - trace[i - 1].seconds;
    if (dt > 0) {
      rates.push_back(
          static_cast<double>(trace[i].updates - trace[i - 1].updates) / dt);
    }
  }
  return rates;
}

// RMS of the ratings' values: the RMSE of predicting 0 for every rating.
double RootMeanSquare(const nomad::SparseMatrix& m) {
  double sum_sq = 0;
  for (const nomad::Rating& r : m.ToCoo()) sum_sq += double{r.value} * r.value;
  return std::sqrt(sum_sq / static_cast<double>(std::max<int64_t>(1, m.nnz())));
}

JobResult RunJob(const Workload& wl, const std::string& dir, uint64_t seed,
                 double ceiling_frac, bool corrupt_model, Tracer* tracer,
                 int64_t parent) {
  JobResult job;
  auto fail = [&job](const std::string& what) {
    ++job.failed;
    if (job.error.empty()) job.error = what;
  };
  ScopedSpan job_span(tracer, "job", parent);
  const int64_t pid = job_span.id();
  const std::string model_path = dir + "/model.nomad";
  const Clock::time_point t0 = Clock::now();

  ++job.attempted;
  auto loaded = [&] {
    ScopedSpan span(tracer, "data.LoadRatingsFile", pid);
    return nomad::LoadRatingsFile(dir + "/ratings.txt", false);
  }();
  const Clock::time_point t1 = Clock::now();
  if (!loaded.ok()) {
    fail("LoadRatingsFile: " + loaded.status().ToString());
    return job;
  }
  job.ratings = loaded.value().nnz();

  ++job.attempted;
  auto split = [&] {
    ScopedSpan span(tracer, "data.SplitTrainTest", pid);
    return nomad::SplitTrainTest(loaded.value(), kTestFraction, seed, wl.name);
  }();
  const Clock::time_point t2 = Clock::now();
  if (!split.ok()) {
    fail("SplitTrainTest: " + split.status().ToString());
    return job;
  }
  job.data = std::move(split).value();
  const nomad::Dataset& ds = job.data;
  job.train_nnz = ds.train.nnz();
  job.test_nnz = ds.test.nnz();

  nomad::obs::MetricsRegistry registry;
  nomad::TrainOptions opts;
  opts.rank = kRank;
  opts.alpha = kAlpha;
  opts.beta = kBeta;
  opts.lambda = kLambda;
  opts.num_workers = wl.workers;
  opts.token_batch_size = kTokenBatch;
  opts.max_epochs = wl.epochs;
  opts.seed = seed;
  opts.precision = nomad::Precision::kF64;
  opts.metrics = &registry;

  ++job.attempted;
  nomad::TrainResult trained;
  {
    ScopedSpan span(tracer, wl.dist ? "net.TrainLoopbackWorld" : "nomad.Train",
                    pid);
    if (wl.dist) {
      nomad::net::DistNomadOptions dopts;
      dopts.train = opts;
      dopts.wire_codec =
          nomad::net::WireCodecSpec::Parse("bf16+delta+batch").value();
      std::vector<nomad::Result<nomad::TrainResult>> ranks =
          nomad::net::TrainLoopbackWorld(ds, dopts, 2);
      bool all_ok = true;
      for (size_t r = 0; r < ranks.size(); ++r) {
        if (!ranks[r].ok()) {
          fail("rank " + std::to_string(r) + ": " +
               ranks[r].status().ToString());
          all_ok = false;
        }
      }
      if (all_ok) {
        // Gate: every rank reports the same trace, and rank 0 holds the
        // full gathered model.
        const auto& p0 = ranks[0].value().trace.points();
        for (size_t r = 1; r < ranks.size(); ++r) {
          const auto& pr = ranks[r].value().trace.points();
          bool same = pr.size() == p0.size();
          for (size_t i = 0; same && i < pr.size(); ++i) {
            same = pr[i].test_rmse == p0[i].test_rmse &&
                   pr[i].updates == p0[i].updates;
          }
          if (!same) fail("rank " + std::to_string(r) + " trace differs");
        }
        trained = std::move(ranks[0]).value();
        if (trained.w.rows() != ds.rows || trained.h.rows() != ds.cols) {
          fail("rank 0 does not hold the full model");
        }
      }
    } else {
      nomad::NomadSolver solver;
      auto r = solver.Train(ds, opts);
      if (r.ok()) {
        trained = std::move(r).value();
      } else {
        fail("Train: " + r.status().ToString());
      }
    }
  }
  const Clock::time_point t3 = Clock::now();
  if (!job.error.empty()) return job;

  ++job.attempted;
  {
    ScopedSpan span(tracer, "eval.Rmse", pid);
    job.final_rmse = nomad::Rmse(ds.test, trained.w, trained.h);
  }
  const Clock::time_point t4 = Clock::now();

  job.model.w = std::move(trained.w);
  job.model.h = std::move(trained.h);
  ++job.attempted;
  nomad::Status saved;
  {
    ScopedSpan span(tracer, "solver.SaveModel", pid);
    saved = nomad::SaveModel(job.model, model_path);
  }
  const Clock::time_point t5 = Clock::now();
  if (!saved.ok()) fail("SaveModel: " + saved.ToString());

  job.load_s = Seconds(t0, t1);
  job.split_s = Seconds(t1, t2);
  job.train_wall_s = Seconds(t2, t3);
  job.eval_s = Seconds(t3, t4);
  job.save_s = Seconds(t4, t5);
  job.job_s = Seconds(t0, t5);
  job.train_s = trained.total_seconds;
  job.updates = trained.total_updates;
  job.trace = trained.trace.points();
  job.test_rms = RootMeanSquare(ds.test);
  job.train_rms = RootMeanSquare(ds.train);
  job.train_rmse = nomad::Rmse(ds.train, job.model.w, job.model.h);
  job.rmse_target =
      job.trace.empty()
          ? std::nan("")
          : job.trace.front().test_rmse -
                kRmseFallShare * (job.trace.front().test_rmse - job.final_rmse);
  job.window_rate = MiddleMean(WindowRates(job.trace));
  job.updates_to_rmse = UpdatesToRmse(job.trace, job.rmse_target);
  job.time_to_rmse_s = job.updates_to_rmse / job.window_rate;
  job.snapshot = registry.Snapshot();

  // Training gates: the solver fitted its training ratings, test RMSE fell
  // from the first trace point, and the saved model meets the workload's
  // RMSE ceiling.
  const double train_ceiling = wl.train_rmse_ceiling_frac * job.train_rms;
  if (!(job.train_rmse <= train_ceiling)) {
    fail("training RMSE " + std::to_string(job.train_rmse) +
         " above the ceiling " + std::to_string(train_ceiling) + " (" +
         std::to_string(wl.train_rmse_ceiling_frac) +
         " x RMS of the training ratings): the solver did not learn");
  }
  if (job.trace.empty() || !(job.final_rmse < job.trace.front().test_rmse)) {
    fail("test RMSE did not fall below the first trace point's");
  }
  const double ceiling = ceiling_frac * job.test_rms;
  if (!(job.final_rmse <= ceiling)) {
    fail("final_test_rmse " + std::to_string(job.final_rmse) +
         " above the ceiling " + std::to_string(ceiling) + " (" +
         std::to_string(ceiling_frac) + " x RMS of the test ratings)");
  }

  if (corrupt_model && saved.ok()) {
    // Self-test hook: flip the sign of the h row that user 0 ranks first,
    // as a corrupted model file would. The parity gate must catch it.
    auto m = nomad::LoadModel(model_path);
    if (m.ok()) {
      nomad::Model bad = std::move(m).value();
      const int32_t j = nomad::TopN(bad, 0, 1).front().item;
      for (int c = 0; c < bad.rank(); ++c) bad.h.Row(j)[c] = -bad.h.Row(j)[c];
      (void)nomad::SaveModel(bad, model_path);
    }
  }
  return job;
}

// ---- run: serving ladder ----

struct Ladder {
  std::vector<StepResult> steps;
  double max_qps_at_slo = 0.0;
  bool ladder_top_passed = false;
  int retries = 0;  // rungs re-run after a first miss
};

// The ladder is the base rate, then rungs relative to the capacity measured
// at the end of the base step (closed-loop TopN on every query thread):
// kLadderStart x capacity, then kRungGrowth times more per rung, up to
// kRungs rungs, until one misses the SLO. A rung that misses is run once
// more on a fresh engine and counts as a miss only if it misses again: one
// stall of the host must not pass for saturation. After the first miss,
// bisections between the last rate that met the SLO and the first that
// missed narrow max_qps_at_slo to within kRefineUntil (two steps after a 5%
// rung; up to kMaxRefineSteps when already the first rung missed). Starting
// near saturation leaves each rung long enough for a steady p99; base rates
// are 15-35% of each workload's saturation rate.
constexpr double kLadderStart = 0.8;
constexpr double kRungGrowth = 1.05;
constexpr int kRungs = 12;
constexpr int kMaxRefineSteps = 6;
constexpr double kRefineUntil = 1.015;

// ---- report helpers ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // regime / sample count, printed in the report only
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Cache sizes as glibc reports them (from cpuid); -1 when unknown.
long CacheBytes(int level) {
  return sysconf(level == 2 ? _SC_LEVEL2_CACHE_SIZE : _SC_LEVEL3_CACHE_SIZE);
}

// Starts a phase whose peak memory PhasePeakRssMb reads: trims the heap,
// so glibc returns what earlier phases freed (it otherwise keeps it in the
// arenas of their exited threads), then resets the kernel's peak RSS mark
// (VmHWM) to the current RSS.
void StartMemoryPhase() {
  malloc_trim(0);
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// Peak RSS since the last StartMemoryPhase, in MB (VmHWM; the process's
// peak from getrusage where /proc is unavailable).
double PhasePeakRssMb() {
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Histogram (sum, count) summed over every label set of `name`.
std::pair<double, int64_t> HistSum(const nomad::obs::MetricsSnapshot& s,
                                   const std::string& name) {
  double sum = 0;
  int64_t count = 0;
  for (const auto& m : s.samples()) {
    if (m.name == name && m.type == nomad::obs::MetricType::kHistogram) {
      sum += m.sum;
      count += m.count;
    }
  }
  return {sum, count};
}

std::vector<nomad::Rating> IngestStream(const nomad::Dataset& ds,
                                        uint64_t seed) {
  std::vector<nomad::Rating> s = ds.test.ToCoo();
  nomad::Rng rng(seed ^ 0x1a9e57ULL);
  rng.Shuffle(&s);
  return s;
}

// Reflect latency percentiles as medians over consecutive chunks of the
// rating stream, so one stall of the host moves one chunk.
struct ReflectStats {
  double p50 = 0;
  double p99 = 0;
  std::string note;
};
ReflectStats SummarizeReflect(const std::vector<double>& reflect) {
  constexpr size_t kChunk = 500;
  std::vector<double> p50, p99;
  for (size_t lo = 0; lo < reflect.size(); lo += kChunk) {
    const size_t hi = std::min(reflect.size(), lo + kChunk);
    if (hi - lo < kChunk / 2 && !p50.empty()) break;
    const std::vector<double> chunk(reflect.begin() + lo, reflect.begin() + hi);
    p50.push_back(Quantile(chunk, 0.50));
    p99.push_back(Quantile(chunk, 0.99));
  }
  return {Median(p50), Median(p99),
          "median over " + std::to_string(p50.size()) + " chunks of " +
              std::to_string(kChunk) + ", n=" + std::to_string(reflect.size())};
}

// ---- run ----

struct RunState {
  Workload wl;
  std::string dir;
  uint64_t seed = 1;
  double seconds = 10;
  double rmse_ceiling_frac = 0;
  bool corrupt = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_error;

  void Count(int64_t attempted_ops, int64_t failed_ops, const std::string& e) {
    attempted += attempted_ops;
    failed += failed_ops;
    if (first_error.empty() && !e.empty()) first_error = e;
  }
};

StepResult ServeStep(RunState* st, const JobResult& job,
                     const std::vector<nomad::Rating>& ingest, size_t* offset,
                     double rate, double seconds, Tracer* tracer,
                     int64_t parent, double capacity_seconds = 0.0) {
  StepConfig c;
  c.model_path = st->dir + "/model.nomad";
  c.reference = &job.model;
  c.ingest = &ingest;
  c.ingest_offset = *offset;
  c.rate = rate;
  c.seconds = seconds;
  c.seed = st->seed * 7919 + *offset;
  c.tracer = tracer;
  c.parent_span = parent;
  c.capacity_seconds = capacity_seconds;
  std::fprintf(stderr, "nomadbench: serving %.1f qps for %.2fs\n", rate,
               seconds);
  StartMemoryPhase();
  StepResult r = RunServeStep(c);
  r.peak_rss_mb = PhasePeakRssMb();
  *offset += static_cast<size_t>(kIngestPerSecond * seconds);
  st->Count(r.attempted, r.failed, r.error);
  return r;
}

void PrintRegime(const RunState& st, const JobResult& job, const char* sha,
                 bool traced) {
  const Workload& wl = st.wl;
  const double catalog_bytes =
      static_cast<double>(job.data.cols) * kRank * sizeof(double);
  std::printf(
      "regime: workload=%s seed=%llu trace=%d shape=%dx%d ratings=%lld "
      "ratings_per_item=%.1f k=%d precision=f64 workers=%d%s codec=%s "
      "catalog_bytes=%.0f L2=%ld L3=%ld\n",
      wl.name.c_str(), static_cast<unsigned long long>(st.seed), traced ? 1 : 0,
      job.data.rows, job.data.cols, static_cast<long long>(job.ratings),
      static_cast<double>(job.train_nnz) / std::max(1, job.data.cols), kRank,
      wl.workers, wl.dist ? "/rank world=2" : "",
      wl.dist ? "bf16+delta+batch" : "none", catalog_bytes, CacheBytes(2),
      CacheBytes(3));
  std::printf("host: simd=%s nproc=%u git=%s query_threads=%d ingest=%.0f/s "
              "write_share_at_base=%.3f slo_p99=%.0fms\n",
              nomad::simd::ActiveTable<double>().isa,
              std::thread::hardware_concurrency(), sha, kQueryThreads,
              kIngestPerSecond,
              kIngestPerSecond / (kIngestPerSecond + wl.base_qps), kSloMs);
}

void PrintResult(const RunState& st, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  if (!st.first_error.empty()) {
    std::printf("FAILED: %s\n", st.first_error.c_str());
  }
  std::string json = "{\"correct\": ";
  json += st.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, st.attempted));
  json += ", \"failed\": " + std::to_string(st.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string Samples(size_t n) { return "n=" + std::to_string(n); }

// Timed (untraced) run: every end-to-end metric.
void RunTimed(RunState* st, const char* sha) {
  const Workload& wl = st->wl;
  Tracer off(false, "");
  const double train_budget = st->seconds * wl.train_share;
  const double serve_budget = st->seconds - train_budget;

  std::vector<JobResult> jobs;
  const Clock::time_point t0 = Clock::now();
  while (jobs.size() < 3 ||
         (Seconds(t0, Clock::now()) < train_budget && jobs.size() < 40)) {
    if (!jobs.empty()) {
      // Only the last job's data and model are served: free the earlier
      // ones, so that no job's memory counts in a later one's peak.
      jobs.back().data = nomad::Dataset();
      jobs.back().model = nomad::Model();
    }
    // peak_rss_mb is the typical peak of a job or a step, not the whole
    // run's high-water mark: that one grew from step to step as the heap
    // fragmented, by a different amount each run (92-114 MB on serve_live).
    StartMemoryPhase();
    jobs.push_back(RunJob(wl, st->dir, st->seed, st->rmse_ceiling_frac,
                          st->corrupt, &off, -1));
    jobs.back().peak_rss_mb = PhasePeakRssMb();
    const JobResult& j = jobs.back();
    std::fprintf(stderr, "nomadbench: job %zu took %.3fs\n", jobs.size(),
                 j.job_s);
    st->Count(j.attempted, j.failed, j.error);
    if (!j.error.empty() && j.model.w.rows() == 0) break;
  }
  JobResult& last = jobs.back();
  PrintRegime(*st, last, sha, false);

  std::vector<double> setup, job_s, ups, ttr, rmse;
  for (const JobResult& j : jobs) {
    setup.push_back(j.load_s + j.split_s);
    job_s.push_back(j.job_s);
    const std::vector<double> rates = WindowRates(j.trace);
    ups.insert(ups.end(), rates.begin(), rates.end());
    ttr.push_back(j.time_to_rmse_s);
    rmse.push_back(j.final_rmse);
  }

  Ladder ladder;
  if (last.model.w.rows() > 0) {
    const std::vector<nomad::Rating> ingest = IngestStream(last.data, st->seed);
    // Serving needs only the rating stream and the reference model: free
    // the dataset so peak_rss_mb counts no harness copy of it.
    last.data = nomad::Dataset();
    size_t offset = 0;
    const double base_s = 0.3 * serve_budget;
    const double capacity_s = 0.1 * serve_budget;
    // Rungs are sized for the ~9 a run usually needs: the first miss near
    // the 5th, its re-run, two refinements and one more re-run.
    const double rung_s = 0.6 * serve_budget / 9;
    const Clock::time_point serve_start = Clock::now();
    // Runs one rung (re-run once on a miss); true when it meets the SLO.
    auto rung = [&](double rate, double len, double capacity_len) {
      StepResult step = ServeStep(st, last, ingest, &offset, rate, len, &off,
                                  -1, capacity_len);
      if (!step.meets_slo && step.failed == 0) {
        ++ladder.retries;
        step = ServeStep(st, last, ingest, &offset, rate, len, &off, -1,
                         capacity_len);
      }
      ladder.steps.push_back(std::move(step));
      return ladder.steps.back().meets_slo;
    };
    // A ladder that outruns its budget by half stops where it is, so that
    // a run's length stays predictable.
    auto out_of_time = [&] {
      return Seconds(serve_start, Clock::now()) > 1.5 * serve_budget;
    };
    if (!rung(wl.base_qps, base_s, capacity_s)) {
      // Overloaded at the base rate: scale it by how far p99 overshot.
      const double p99 = std::min(ladder.steps[0].p99_ms, 4 * kSloMs);
      ladder.max_qps_at_slo = wl.base_qps * kSloMs / p99;
    } else {
      const double capacity = ladder.steps[0].capacity_qps;
      double met = wl.base_qps;
      double missed = 0.0;
      for (int i = 0; i < kRungs && missed == 0.0 && !out_of_time(); ++i) {
        const double rate = std::max(
            wl.base_qps, kLadderStart * capacity * std::pow(kRungGrowth, i));
        if (rung(rate, rung_s, 0.0)) {
          met = rate;
        } else {
          missed = rate;
        }
      }
      ladder.ladder_top_passed = missed == 0.0;
      for (int i = 0;
           i < kMaxRefineSteps && missed > 0.0 &&
           missed / met > kRefineUntil && !out_of_time();
           ++i) {
        const double mid = std::sqrt(met * missed);
        if (rung(mid, rung_s, 0.0)) {
          met = mid;
        } else {
          missed = mid;
        }
      }
      ladder.max_qps_at_slo = met;
    }
  }
  std::vector<double> reflect, serve_setup;
  for (const StepResult& s : ladder.steps) {
    reflect.insert(reflect.end(), s.reflect_ms.begin(), s.reflect_ms.end());
    serve_setup.push_back(s.load_s + s.create_s);
  }
  const ReflectStats reflect_stats = SummarizeReflect(reflect);
  const StepResult base = ladder.steps.empty() ? StepResult{} : ladder.steps[0];

  std::vector<Metric> m;
  const bool serve_setup_headline = wl.name == "serve_live";
  m.push_back({"setup_s",
               MiddleMean(serve_setup_headline ? serve_setup : setup), "s",
               serve_setup_headline
                   ? "LoadModel+ServeEngine::Create, middle mean " +
                         Samples(serve_setup.size())
                   : "LoadRatingsFile+SplitTrainTest, middle mean " +
                         Samples(setup.size())});
  m.push_back({"job_s", MiddleMean(job_s), "s",
               "file -> saved model, middle mean " + Samples(jobs.size())});
  m.push_back({"updates_per_s", MiddleMean(ups), "1/s",
               "middle mean over the trace windows of " +
                   std::to_string(jobs.size()) + " jobs, " +
                   Samples(ups.size())});
  m.push_back({"time_to_rmse_s", MiddleMean(ttr), "s",
               "updates until test RMSE made " + JsonNumber(kRmseFallShare) +
                   " of its fall (last job: to " +
                   JsonNumber(last.rmse_target) +
                   ") / the job's window rate, middle mean " +
                   Samples(ttr.size())});
  m.push_back({"final_test_rmse", Median(rmse), "rating",
               "ceiling " + JsonNumber(st->rmse_ceiling_frac) +
                   " x RMS(test ratings), median " +
                   Samples(rmse.size())});
  std::vector<double> job_peak, step_peak;
  for (const JobResult& j : jobs) job_peak.push_back(j.peak_rss_mb);
  for (const StepResult& s : ladder.steps) step_peak.push_back(s.peak_rss_mb);
  m.push_back({"peak_rss_mb",
               std::max(MiddleMean(job_peak), MiddleMean(step_peak)), "MB",
               "peak of a job (" + JsonNumber(MiddleMean(job_peak)) +
                   ") or a serving step (" + JsonNumber(MiddleMean(step_peak)) +
                   "), whichever is higher, middle means"});
  const std::string base_note = "at " + JsonNumber(base.rate) +
                                " qps, median of 5 windows, " +
                                Samples(base.latency_ms.size());
  m.push_back({"query_p50_ms", base.p50_ms, "ms", base_note});
  m.push_back({"max_qps_at_slo", ladder.max_qps_at_slo, "1/s",
               std::string(ladder.ladder_top_passed ? "no rung missed, "
                                                    : "") +
                   "highest rate with p99<=" + JsonNumber(kSloMs) +
                   "ms over " +
                   Samples(ladder.steps.size()) + " rungs, " +
                   std::to_string(ladder.retries) + " re-run"});

  std::printf("jobs:\n");
  for (const JobResult& j : jobs) {
    std::printf("  load %.3fs split %.3fs train %.3fs (wall %.3fs) eval %.3fs "
                "save %.3fs job %.3fs updates %lld (%.4g to target) rmse "
                "%.4f (x%.4f of RMS) train rmse x%.4f of RMS\n",
                j.load_s, j.split_s, j.train_s, j.train_wall_s, j.eval_s,
                j.save_s, j.job_s, static_cast<long long>(j.updates),
                j.updates_to_rmse,
                j.final_rmse, j.final_rmse / j.test_rms,
                j.train_rmse / j.train_rms);
  }
  std::printf("trace of the last job (train seconds: test RMSE / RMS(test "
              "ratings) = %.4f):",
              last.test_rms);
  for (const nomad::TracePoint& p : last.trace) {
    std::printf(" %.3f:%.4f", p.seconds, p.test_rmse / last.test_rms);
  }
  std::printf("\nladder:\n");
  for (const StepResult& s : ladder.steps) {
    std::printf("  rate %8.1f offered %6lld done %6lld p50 %.3fms p99 %.3fms "
                "lag_p99 %.3fms hits %lld/%lld torn %lld %s\n",
                s.rate, static_cast<long long>(s.offered),
                static_cast<long long>(s.completed), s.p50_ms, s.p99_ms,
                Quantile(s.lag_ms, 0.99), static_cast<long long>(s.cache_hits),
                static_cast<long long>(s.cache_hits + s.cache_misses),
                static_cast<long long>(s.torn_retries),
                s.meets_slo ? "meets" : "misses");
  }
  // Figures that the host's scheduling moves far beyond any bound (see
  // CHANGES.md): printed here, and per-layer metrics of the traced run, but
  // not gated.
  std::printf("unbounded: query_p99_ms %.6g (%s) reflect_p50_ms %.6g "
              "reflect_p99_ms %.6g (%s)\n",
              base.p99_ms, base_note.c_str(), reflect_stats.p50,
              reflect_stats.p99, reflect_stats.note.c_str());
  std::printf("metrics (failed %lld of %lld operations):\n",
              static_cast<long long>(st->failed),
              static_cast<long long>(st->attempted));
  PrintResult(*st, m);
}

// Traced run: the per-layer metrics, the residual and the tracing overhead.
void RunTraced(RunState* st, const char* sha) {
  const Workload& wl = st->wl;
  Tracer off(false, "");
  Tracer tracer(true, wl.name + "-" + std::to_string(st->seed));
  const int64_t root = tracer.Open("run", -1);
  const double serve_budget = st->seconds * (1.0 - wl.train_share);
  const double step_s = 0.25 * serve_budget;

  // Untraced and traced copies of one job and one base-rate step: their
  // difference is the tracing overhead.
  const JobResult plain = RunJob(wl, st->dir, st->seed, st->rmse_ceiling_frac,
                                 st->corrupt, &off, -1);
  st->Count(plain.attempted, plain.failed, plain.error);
  JobResult job = RunJob(wl, st->dir, st->seed, st->rmse_ceiling_frac, st->corrupt,
                         &tracer, root);
  st->Count(job.attempted, job.failed, job.error);
  PrintRegime(*st, job, sha, true);
  std::vector<Metric> m;
  if (job.model.w.rows() == 0) {
    PrintResult(*st, m);
    return;
  }
  const std::vector<nomad::Rating> ingest = IngestStream(job.data, st->seed);
  size_t offset = 0;
  const StepResult step_plain =
      ServeStep(st, job, ingest, &offset, wl.base_qps, step_s, &off, -1);
  int64_t ladder_span = tracer.Open("serve.rate_step", root);
  const StepResult step =
      ServeStep(st, job, ingest, &offset, wl.base_qps, step_s, &tracer,
                ladder_span);
  tracer.Close(ladder_span);

  // ---- probes at the workload's shape ----
  const int total_workers = wl.workers;
  double shard_s, sgd_ns, scan_ns;
  HandoffProbe handoff;
  CodecProbe codec;
  EngineProbe engine;
  {
    ScopedSpan s(&tracer, "probe.shard", root);
    shard_s = ProbeShardSeconds(job.data.train, total_workers);
  }
  {
    ScopedSpan s(&tracer, "probe.sgd", root);
    sgd_ns = ProbeSgdNsPerUpdate(job.data.train, total_workers, kRank);
  }
  {
    ScopedSpan s(&tracer, "probe.handoff", root);
    handoff = ProbeHandoff(total_workers, kTokenBatch, job.data.cols);
  }
  {
    ScopedSpan s(&tracer, "probe.codec", root);
    codec = ProbeCodec(job.model);
  }
  {
    ScopedSpan s(&tracer, "probe.scan", root);
    scan_ns = ProbeScanNsPerItemK(job.model);
  }
  {
    ScopedSpan s(&tracer, "probe.engine", root);
    engine = ProbeEngine(job.model, job.data.test);
  }

  // ---- net layer: the same job on a 2-rank loopback world ----
  JobResult dist;
  if (wl.net_probe) {
    Workload dw = wl;
    dw.dist = true;
    dw.workers = 1;
    malloc_trim(0);
    dist = RunJob(dw, st->dir, st->seed, st->rmse_ceiling_frac, false, &tracer,
                  root);
    st->Count(dist.attempted, dist.failed, dist.error);
    std::printf("net job: world=2 workers=1/rank codec=bf16+delta+batch "
                "train %.3fs (wall %.3fs) updates %lld\n",
                dist.train_s, dist.train_wall_s,
                static_cast<long long>(dist.updates));
  }
  tracer.Close(root);

  // ---- registry counters of the traced job ----
  const auto& snap = job.snapshot;
  const double popped = snap.SumByName("nomad_worker_tokens_popped_total");
  const double updates = static_cast<double>(job.updates);
  // Worker-seconds of training (evaluation pauses excluded) for the
  // reconciliation; the latency histograms also cover the pauses, so their
  // shares are of the workers' whole lifetime, the Train call's wall time.
  const double worker_s = job.train_s * total_workers;
  const double worker_wall_s = job.train_wall_s * total_workers;
  const auto wait = HistSum(snap, "nomad_worker_queue_wait_latency_seconds");
  const auto service = HistSum(snap, "nomad_worker_service_latency_seconds");
  const auto pop = HistSum(snap, "nomad_worker_pop_batch");
  // The net counters come from the loopback-world job; without one they
  // read 0.
  const nomad::obs::MetricsSnapshot& net = dist.snapshot;
  const auto pump = HistSum(net, "nomad_dist_pump_round_latency_seconds");
  const double sent = net.SumByName("nomad_dist_tokens_sent_total");
  const double net_popped = net.SumByName("nomad_worker_tokens_popped_total");
  const double tx_bytes = net.SumByName("nomad_dist_tx_bytes_total");
  const double raw_bytes = net.SumByName("nomad_dist_codec_raw_bytes_total");
  const double coded_bytes =
      net.SumByName("nomad_dist_codec_coded_bytes_total");
  const std::string no_net =
      wl.net_probe ? "loopback-world job" : "0: no net job in this workload";
  const double per_token = popped > 0 ? 1.0 / popped : 0.0;
  const double service_s =
      service.second > 0 ? service.first / service.second * popped : 0.0;

  // Trace windows whose update rate is below half the run's median rate.
  const std::vector<double> window_rates = WindowRates(job.trace);
  const double median_rate = Median(window_rates);
  double slow = 0;
  for (double r : window_rates) slow += r < 0.5 * median_rate ? 1 : 0;

  // Reconciliation: worker-seconds not explained by the probed unit costs.
  const double modelled =
      updates * sgd_ns * 1e-9 + popped * handoff.ns_per_token * 1e-9;
  const double residual = worker_s > 0 ? (worker_s - modelled) / worker_s : 0.0;

  std::vector<double> create;
  std::vector<double> load;
  for (const StepResult* s : {&step_plain, &step}) {
    create.push_back(s->create_s);
    load.push_back(s->load_s);
  }
  const double queries = static_cast<double>(step.completed);
  const ReflectStats reflect_plain = SummarizeReflect(step_plain.reflect_ms);

  m = {
      {"data.load_ns_per_rating", 1e9 * job.load_s / job.ratings, "ns", ""},
      {"data.split_ns_per_rating", 1e9 * job.split_s / job.ratings, "ns", ""},
      {"data.shard_s", shard_s, "s", ""},
      {"solver.sgd_ns_per_update", sgd_ns, "ns",
       nomad::simd::ActiveTable<double>().isa},
      {"solver.model_save_s", job.save_s, "s", ""},
      {"solver.model_load_s", Median(load), "s", ""},
      {"queue.handoff_ns_per_token", handoff.ns_per_token, "ns",
       "p=" + std::to_string(total_workers) +
           " batch=" + std::to_string(kTokenBatch)},
      {"queue.ops_per_token", handoff.ops_per_token, "count", ""},
      {"nomad.train_overhead_s", job.train_wall_s - job.train_s, "s", ""},
      {"nomad.backoffs_per_mtoken",
       1e6 * snap.SumByName("nomad_worker_batch_backoffs_total") * per_token,
       "count", ""},
      {"nomad.mean_pop_batch",
       pop.second > 0 ? pop.first / static_cast<double>(pop.second) : 0.0,
       "count", ""},
      {"nomad.queue_wait_share",
       worker_wall_s > 0 ? wait.first / worker_wall_s : 0.0, "share", ""},
      {"nomad.service_share",
       worker_wall_s > 0 ? service_s / worker_wall_s : 0.0, "share", ""},
      {"nomad.slow_window_frac",
       window_rates.empty() ? 0.0 : slow / window_rates.size(), "share",
       Samples(window_rates.size()) + " windows"},
      {"nomad.updates_per_token", updates * per_token, "count", ""},
      {"nomad.model_residual_frac", residual, "share", ""},
      {"eval.rmse_ns_per_rating", 1e9 * job.eval_s / std::max<int64_t>(1, job.test_nnz),
       "ns", ""},
      {"eval.trace_points", static_cast<double>(job.trace.size()), "count", ""},
      {"net.bytes_per_token", sent > 0 ? tx_bytes / sent : 0.0, "B",
       wl.net_probe ? no_net + ": tokens+control frames sent, pre-codec"
                    : no_net},
      {"net.codec_ns_per_row", codec.codec_ns_per_row, "ns", "probe"},
      {"net.transport_ns_per_frame", codec.transport_ns_per_frame, "ns",
       "probe"},
      {"net.codec_ratio", raw_bytes > 0 ? coded_bytes / raw_bytes : 0.0,
       "ratio", no_net},
      {"net.pump_round_us",
       pump.second > 0 ? 1e6 * pump.first / static_cast<double>(pump.second)
                       : 0.0,
       "us", no_net},
      {"net.remote_token_frac", net_popped > 0 ? sent / net_popped : 0.0,
       "share", no_net},
      {"net.send_retries", net.SumByName("nomad_dist_send_retries_total"),
       "count", no_net},
      {"serve.topn_miss_ms", engine.topn_miss_ms, "ms", ""},
      {"serve.scan_ns_per_item_k", scan_ns, "ns", ""},
      {"serve.cache_hit_frac",
       static_cast<double>(step.cache_hits) /
           std::max<int64_t>(1, step.cache_hits + step.cache_misses),
       "share", ""},
      {"serve.apply_us_per_rating", engine.apply_us_per_rating, "us", ""},
      {"serve.torn_row_retries_per_kq",
       1e3 * static_cast<double>(step.torn_retries) / std::max(1.0, queries),
       "count", ""},
      {"serve.generator_lag_p99_ms", Quantile(step.lag_ms, 0.99), "ms",
       "start lateness of queries due while their thread was idle, " +
           Samples(step.lag_ms.size())},
      {"serve.query_p99_ms", step_plain.p99_ms, "ms",
       "untraced base step, median of 5 windows"},
      {"serve.reflect_p50_ms", reflect_plain.p50, "ms", "untraced base step"},
      {"serve.reflect_p99_ms", reflect_plain.p99, "ms", "untraced base step"},
      {"serve.engine_create_s", Median(create), "s", ""},
      {"trace.overhead_job_s", job.job_s - plain.job_s, "s", ""},
      {"trace.overhead_query_p50_ms", step.p50_ms - step_plain.p50_ms, "ms",
       ""},
  };

  std::printf("span self time (traced job, traced step, probes):\n");
  for (const Tracer::SelfTime& s : tracer.SelfTimes()) {
    std::printf("  %-26s n=%-7lld total %10.4fs self %10.4fs\n",
                s.name.c_str(), static_cast<long long>(s.count), s.total_s,
                s.self_s);
  }
  const std::string spans = st->dir + "/spans.jsonl";
  if (!tracer.WriteJsonl(spans)) {
    st->Count(1, 1, "cannot write " + spans);
  }
  std::printf("per-layer metrics (failed %lld of %lld operations):\n",
              static_cast<long long>(st->failed),
              static_cast<long long>(st->attempted));
  PrintResult(*st, m);
}

int Run(const nomad::Flags& args) {
  RunState st;
  if (!FindWorkload(args.GetString("workload"), args.GetDouble("scale", 1.0),
                    &st.wl)) {
    Die("unknown workload " + args.GetString("workload"));
  }
  st.dir = args.GetString("dir");
  st.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  st.seconds = args.GetDouble("seconds", 10);
  st.rmse_ceiling_frac =
      args.GetDouble("rmse-ceiling-frac", st.wl.rmse_ceiling_frac);
  st.corrupt = args.GetBool("corrupt-model", false);
  const std::string sha = args.GetString("git-sha", "unknown");
  if (args.GetInt("trace", 0) != 0) {
    RunTraced(&st, sha.c_str());
  } else {
    RunTimed(&st, sha.c_str());
  }
  return st.failed == 0 ? 0 : 1;
}

}  // namespace

// ---- tracer output ----

std::vector<Tracer::SelfTime> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < 0) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, lo = s.start, hi = s.start;
    for (const auto& [a0, b0] : iv) {
      const double a = std::max(a0, s.start), b = std::min(b0, s.end);
      if (b <= a) continue;
      if (a > hi) {
        covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    covered += hi - lo;
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_s += s.end - s.start;
    t.self_s += (s.end - s.start) - covered;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %lld, \"run\": \"%s\", \"name\": "
                 "\"%s\", \"start\": %.9f, \"end\": %.9f}\n",
                 i, static_cast<long long>(s.parent), run_id_.c_str(), s.name,
                 s.start, s.end);
  }
  return std::fclose(f) == 0;
}

}  // namespace nomadbench

int main(int argc, char** argv) {
  nomad::Flags args;
  const nomad::Status parsed = args.Parse(argc, argv);
  if (!parsed.ok()) nomadbench::Die(parsed.ToString());
  const std::string cmd =
      args.positional().size() == 1 ? args.positional()[0] : "";
  if (cmd != "gen" && cmd != "run") {
    nomadbench::Die("usage: nomadbench gen|run --workload W ...");
  }
  const nomad::Status known = args.ExpectKnown(
      cmd == "gen" ? nomadbench::kGenFlags : nomadbench::kRunFlags);
  if (!known.ok()) nomadbench::Die(known.ToString());
  return cmd == "gen" ? nomadbench::Gen(args) : nomadbench::Run(args);
}
