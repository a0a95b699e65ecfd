#include "solver/run_recorder.h"

#include <algorithm>

namespace nomad {

namespace {

int64_t UpdateBudget(const TrainOptions& options, int64_t nnz) {
  if (options.max_updates > 0) return options.max_updates;
  if (options.max_epochs > 0) {
    return options.max_epochs * std::max<int64_t>(nnz, 1);
  }
  return -1;
}

}  // namespace

RunRecorder::RunRecorder(const Dataset& ds, const TrainOptions& options,
                         TrainResult* result, obs::MetricsRegistry* registry,
                         bool caller_timeline)
    : ds_(ds),
      options_(options),
      result_(result),
      empty_(ds.train.nnz() == 0 || ds.cols == 0),
      update_budget_(UpdateBudget(options, ds.train.nnz())) {
  if (caller_timeline && options.timeline != nullptr) {
    timeline_ = options.timeline;
  } else {
    timeline_ = &own_timeline_.emplace(registry);
  }
  if (registry != nullptr && options.metrics_sample_ms > 0 && !empty_) {
    timeline_->StartSampler(options.metrics_sample_ms);
  }
}

RunRecorder::~RunRecorder() { timeline_->StopSampler(); }

bool RunRecorder::Done(int64_t updates, double seconds, int epochs) const {
  if (options_.max_seconds > 0 && seconds >= options_.max_seconds) {
    return true;
  }
  if (epochs < 0) return update_budget_ > 0 && updates >= update_budget_;
  return (options_.max_epochs > 0 && epochs >= options_.max_epochs) ||
         (options_.max_updates > 0 && updates >= options_.max_updates);
}

void RunRecorder::Record(const TracePoint& pt) {
  result_->trace.Add(pt);
  timeline_->RecordTrace(pt);
}

void RunRecorder::Finish() {
  if (finished_) return;
  finished_ = true;
  // A caller's timeline keeps sampling only if the caller restarts it:
  // the run it was pacing is over.
  timeline_->StopSampler();
  result_->timeline = timeline_->Points();
}

}  // namespace nomad
