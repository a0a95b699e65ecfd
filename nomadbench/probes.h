// Per-layer probes of the traced run. Each times calls into one layer's
// public functions at the workload's own shape, from outside the library.
#ifndef NOMADBENCH_PROBES_H_
#define NOMADBENCH_PROBES_H_

#include <cstdint>

#include "data/sparse_matrix.h"
#include "solver/model.h"

namespace nomadbench {

/// data: UserPartition::ByRatings + ColumnShards::Build, seconds.
double ProbeShardSeconds(const nomad::SparseMatrix& train, int workers);

/// solver: the active f64 sgd_update_pair over one worker's shard of
/// `train` split `workers` ways, in the order NOMAD's token loop visits it,
/// ns per update.
double ProbeSgdNsPerUpdate(const nomad::SparseMatrix& train, int workers,
                           int k);

struct HandoffProbe {
  double ns_per_token = 0.0;   ///< Worker-ns per token moved.
  double ops_per_token = 0.0;  ///< Queue lock acquisitions per token.
};
/// queue/nomad: `workers` threads circulate `tokens` tokens through
/// MpmcQueue::TryPopBatch, TokenRouter::PickBatch and PushBatch with no
/// SGD work in between.
HandoffProbe ProbeHandoff(int workers, int batch, int32_t tokens);

struct CodecProbe {
  double codec_ns_per_row = 0.0;      ///< Encode+send+receive+decode.
  double transport_ns_per_frame = 0.0;  ///< Send+receive, no codec.
};
/// net: token frames of the model's h rows, drifted by one SGD step per
/// round, over a CodecTransport (bf16+delta+batch) on a LoopbackTransport
/// pair, and the same frames over the bare pair.
CodecProbe ProbeCodec(const nomad::Model& model);

/// linalg: ScoreRows over the whole catalog, ns per (item x k).
double ProbeScanNsPerItemK(const nomad::Model& model);

struct EngineProbe {
  double topn_miss_ms = 0.0;        ///< Median uncached TopN, one thread.
  double apply_us_per_rating = 0.0; ///< Mean ApplyRating, quiet engine.
};
/// serve: uncached TopN and ApplyRating on a quiet engine of `model`.
EngineProbe ProbeEngine(const nomad::Model& model,
                        const nomad::SparseMatrix& ratings);

}  // namespace nomadbench

#endif  // NOMADBENCH_PROBES_H_
