// Matrix persistence: Matrix Market (the SuiteSparse interchange format the
// paper's matrices ship in) and a fast binary format for cached test inputs.
//
// Headers are untrusted: the readers reject dimensions past index_t and
// size no array past what the rest of the file can hold, so a crafted
// header fails with a Status instead of exhausting memory.  ReadBinary
// therefore needs a seekable file.
#pragma once

#include <string>

#include "common/status.hpp"
#include "sparse/csr.hpp"

namespace oocgemm::sparse {

/// Reads a MatrixMarket "matrix coordinate real|integer|pattern
/// general|symmetric" file.  Pattern entries get value 1.0; symmetric files
/// must be square and are expanded to full storage.
StatusOr<Csr> ReadMatrixMarket(const std::string& path);

/// Writes `a` as "matrix coordinate real general" with 1-based indices.
Status WriteMatrixMarket(const Csr& a, const std::string& path);

/// Binary snapshot (magic + dims + raw arrays, little-endian host layout).
Status WriteBinary(const Csr& a, const std::string& path);
StatusOr<Csr> ReadBinary(const std::string& path);

}  // namespace oocgemm::sparse
