#ifndef NOMAD_BASELINES_BLOCK_GRID_H_
#define NOMAD_BASELINES_BLOCK_GRID_H_

#include <cstdint>
#include <vector>

#include "data/shard.h"
#include "data/sparse_matrix.h"

namespace nomad {

/// One training rating inside a block, with its global CSC position for
/// per-rating step-count lookup.
struct BlockEntry {
  int32_t row;
  int32_t col;
  float value;
  int64_t pos;
};

/// The rating matrix cut into a grid of row-blocks × column-blocks — the
/// data layout underlying DSGD (p×p), DSGD++ (p×2p) and FPSGD** (p'×p');
/// see the paper's Figure 4 comparison of partitioning schemes.
class BlockGrid {
 public:
  BlockGrid() = default;

  /// Builds the grid. Row blocks follow `row_part`, column blocks follow
  /// `col_part` (both are 1-D contiguous partitions).
  static BlockGrid Build(const SparseMatrix& train,
                         const UserPartition& row_part,
                         const UserPartition& col_part);

  int row_blocks() const { return row_blocks_; }
  int col_blocks() const { return col_blocks_; }

  const std::vector<BlockEntry>& Block(int rb, int cb) const {
    return blocks_[static_cast<size_t>(rb) * col_blocks_ +
                   static_cast<size_t>(cb)];
  }

 private:
  int row_blocks_ = 0;
  int col_blocks_ = 0;
  std::vector<std::vector<BlockEntry>> blocks_;
};

inline BlockGrid BlockGrid::Build(const SparseMatrix& train,
                                  const UserPartition& row_part,
                                  const UserPartition& col_part) {
  BlockGrid g;
  g.row_blocks_ = row_part.num_workers();
  g.col_blocks_ = col_part.num_workers();
  g.blocks_.resize(static_cast<size_t>(g.row_blocks_) *
                   static_cast<size_t>(g.col_blocks_));
  for (int32_t j = 0; j < train.cols(); ++j) {
    const int cb = col_part.OwnerOf(j);
    const int32_t n = train.ColNnz(j);
    const int32_t* rows = train.ColRows(j);
    const float* vals = train.ColVals(j);
    const int64_t off = train.ColOffset(j);
    for (int32_t t = 0; t < n; ++t) {
      const int rb = row_part.OwnerOf(rows[t]);
      g.blocks_[static_cast<size_t>(rb) * g.col_blocks_ +
                static_cast<size_t>(cb)]
          .push_back(BlockEntry{rows[t], j, vals[t], off + t});
    }
  }
  return g;
}

}  // namespace nomad

#endif  // NOMAD_BASELINES_BLOCK_GRID_H_
