#include "solver/model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_set>

#include "linalg/dense_ops.h"

namespace nomad {

namespace {

constexpr uint64_t kModelMagic = 0x4e4f4d4144573101ULL;  // "NOMADW1\x01"

struct ModelHeader {
  uint64_t magic;
  int64_t users;
  int64_t items;
  int32_t rank;
  int32_t reserved;
};

bool WriteMatrix(const FactorMatrix& m, std::FILE* f) {
  for (int64_t i = 0; i < m.rows(); ++i) {
    if (std::fwrite(m.Row(i), sizeof(double),
                    static_cast<size_t>(m.cols()),
                    f) != static_cast<size_t>(m.cols())) {
      return false;
    }
  }
  return true;
}

bool ReadMatrix(FactorMatrix* m, std::FILE* f) {
  for (int64_t i = 0; i < m->rows(); ++i) {
    if (std::fread(m->Row(i), sizeof(double),
                   static_cast<size_t>(m->cols()),
                   f) != static_cast<size_t>(m->cols())) {
      return false;
    }
  }
  return true;
}

}  // namespace

double Model::Predict(int32_t user, int32_t item) const {
  return Dot(w.Row(user), h.Row(item), rank());
}

std::vector<ScoredItem> TopN(const Model& model, int32_t user, int n,
                             const std::vector<int32_t>& exclude) {
  std::unordered_set<int32_t> skip(exclude.begin(), exclude.end());
  std::vector<ScoredItem> candidates;
  candidates.reserve(static_cast<size_t>(model.items()));
  for (int32_t j = 0; j < static_cast<int32_t>(model.items()); ++j) {
    if (skip.count(j) > 0) continue;
    candidates.push_back(ScoredItem{j, model.Predict(user, j)});
  }
  const auto better = [](const ScoredItem& a, const ScoredItem& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.item < b.item;  // ties toward the lower item id
  };
  const size_t keep =
      std::min(candidates.size(), static_cast<size_t>(std::max(n, 0)));
  std::partial_sort(candidates.begin(),
                    candidates.begin() + static_cast<long>(keep),
                    candidates.end(), better);
  candidates.resize(keep);
  return candidates;
}

Status SaveModel(const Model& model, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  ModelHeader header{kModelMagic, model.users(), model.items(),
                     model.rank(), 0};
  bool ok = std::fwrite(&header, sizeof(header), 1, f) == 1 &&
            WriteMatrix(model.w, f) && WriteMatrix(model.h, f);
  // Buffered bytes reach the device only at flush/close; a full or failing
  // device reports its error there, not at fwrite.
  ok = std::fflush(f) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  return ok ? Status::OK() : Status::IOError("short write: " + path);
}

Result<Model> LoadModel(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  ModelHeader header{};
  if (std::fread(&header, sizeof(header), 1, f) != 1) {
    std::fclose(f);
    return Status::IOError("short read: " + path);
  }
  if (header.magic != kModelMagic) {
    std::fclose(f);
    return Status::InvalidArgument("bad model magic in " + path);
  }
  if (header.rank <= 0 || header.users < 0 || header.items < 0) {
    std::fclose(f);
    return Status::InvalidArgument("corrupt model header in " + path);
  }
  // The header's sizes must fit in the file before anything is allocated
  // from them: a few corrupt bytes must not turn into a huge allocation.
  uint64_t factor_rows = 0;
  uint64_t payload = 0;
  const bool overflow =
      __builtin_add_overflow(static_cast<uint64_t>(header.users),
                             static_cast<uint64_t>(header.items),
                             &factor_rows) ||
      __builtin_mul_overflow(factor_rows, static_cast<uint64_t>(header.rank),
                             &payload) ||
      __builtin_mul_overflow(payload, uint64_t{sizeof(double)}, &payload);
  const long header_end = std::ftell(f);
  const bool sized = std::fseek(f, 0, SEEK_END) == 0;
  const long file_end = std::ftell(f);
  if (!sized || header_end < 0 || file_end < header_end ||
      std::fseek(f, header_end, SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IOError("cannot size model file: " + path);
  }
  if (overflow || payload > static_cast<uint64_t>(file_end - header_end)) {
    std::fclose(f);
    return Status::InvalidArgument(
        "model header in " + path + " claims " +
        std::to_string(header.users) + " users and " +
        std::to_string(header.items) + " items at rank " +
        std::to_string(header.rank) + ", more than the file's " +
        std::to_string(file_end - header_end) + " payload bytes hold");
  }
  Model model;
  model.w = FactorMatrix(header.users, header.rank);
  model.h = FactorMatrix(header.items, header.rank);
  const bool ok = ReadMatrix(&model.w, f) && ReadMatrix(&model.h, f);
  std::fclose(f);
  if (!ok) return Status::IOError("truncated model file: " + path);
  return model;
}

double Mae(const SparseMatrix& ratings, const Model& model) {
  if (ratings.nnz() == 0) return 0.0;
  double sum = 0.0;
  for (int32_t i = 0; i < ratings.rows(); ++i) {
    const int32_t n = ratings.RowNnz(i);
    const int32_t* cols = ratings.RowCols(i);
    const float* vals = ratings.RowVals(i);
    for (int32_t p = 0; p < n; ++p) {
      sum += std::fabs(vals[p] - model.Predict(i, cols[p]));
    }
  }
  return sum / static_cast<double>(ratings.nnz());
}

double SignAccuracy(const SparseMatrix& ratings, const Model& model) {
  if (ratings.nnz() == 0) return 0.0;
  int64_t correct = 0;
  for (int32_t i = 0; i < ratings.rows(); ++i) {
    const int32_t n = ratings.RowNnz(i);
    const int32_t* cols = ratings.RowCols(i);
    const float* vals = ratings.RowVals(i);
    for (int32_t p = 0; p < n; ++p) {
      const double pred = model.Predict(i, cols[p]);
      if ((pred >= 0) == (vals[p] >= 0)) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(ratings.nnz());
}

}  // namespace nomad
