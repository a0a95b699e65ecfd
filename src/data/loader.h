#ifndef NOMAD_DATA_LOADER_H_
#define NOMAD_DATA_LOADER_H_

#include <string>
#include <vector>

#include "data/sparse_matrix.h"
#include "util/status.h"

namespace nomad {

/// Parses MovieLens/Netflix-style text ratings: one rating per line,
/// whitespace- or comma-separated `user item rating [timestamp]`, 0- or
/// 1-based ids (auto-detected as max-based sizing; ids are used verbatim if
/// 0-based, shifted if `one_based`). Lines starting with '#' or '%' are
/// comments.
Result<std::vector<Rating>> ParseRatingsText(const std::string& content,
                                             bool one_based);

/// Loads a ratings text file. Dimensions are max(row)+1 × max(col)+1.
Result<SparseMatrix> LoadRatingsFile(const std::string& path, bool one_based);

}  // namespace nomad

#endif  // NOMAD_DATA_LOADER_H_
