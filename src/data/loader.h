#ifndef NOMAD_DATA_LOADER_H_
#define NOMAD_DATA_LOADER_H_

#include <string>
#include <vector>

#include "data/sparse_matrix.h"
#include "util/status.h"

namespace nomad {

/// Parses MovieLens/Netflix-style text ratings: one rating per line,
/// `user item rating [anything]`, fields separated by runs of spaces, tabs,
/// commas or colons ("1::2::5::978300760"), 0- or 1-based ids (used
/// verbatim if 0-based, shifted if `one_based`). Ids read as strtoll and
/// ratings as strtod read them. Lines that are blank or start with '#' or
/// '%' are skipped. Every error names its line; with several bad lines,
/// the first. Inputs of several MiB are parsed on several threads, with
/// the same result.
Result<std::vector<Rating>> ParseRatingsText(const std::string& text,
                                             bool one_based);

/// Loads a ratings text file. Dimensions are max(row)+1 × max(col)+1. A
/// file that cannot be opened or read in full is an IOError.
Result<SparseMatrix> LoadRatingsFile(const std::string& path, bool one_based);

}  // namespace nomad

#endif  // NOMAD_DATA_LOADER_H_
