// Content-stable placement keys for B operands.
//
// The serving layer's batch former (serve/batching.hpp) matches B operands
// by pointer identity — correct for forming a batch inside one process,
// useless for placement: a restarted client re-loads the same matrix at a
// different address.  The fleet instead keys the ring on a digest of the
// matrix's *content*: shape, nnz, and a bounded sample of the structure
// arrays.
// Two processes loading the same matrix therefore route to the same shard,
// which is what makes PanelCache affinity survive restarts.
//
// The digest samples a fixed number of positions instead of hashing every
// entry: placement runs on the submit path, and a full pass over a
// 100M-nnz operand would dominate submission cost.  Shape + nnz + sampled
// structure is plenty to separate distinct operands in practice; a
// collision merely costs locality, never correctness.
#pragma once

#include <cstdint>

#include "sparse/csr.hpp"

namespace oocgemm::fleet {

/// Digest of a matrix's identity for ring placement.  Deterministic across
/// processes and runs; depends only on matrix content.
std::uint64_t OperandPlacementKey(const sparse::Csr& m);

}  // namespace oocgemm::fleet
