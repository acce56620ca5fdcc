// Operand-aware batch formation.
//
// Many serving workloads multiply different A's against one shared B (the
// A^2 / dataset-squaring analytics pattern), and the out-of-core pipeline's
// dominant recurring cost for such jobs is re-uploading B's column panels
// per job.  The batch former lets a scheduler worker that just popped a
// GPU-eligible job peel queued companions that share its B operand, so the
// whole group can run through core::BatchedOutOfCore under one device
// lease with B's panels uploaded once.
//
// Companion matching is by operand *identity*, not content: the fingerprint
// is the Csr's storage address plus its shape/nnz, which is exact for the
// shared_ptr-aliased operands the job API encourages and never
// false-positives two different matrices that happen to look alike (the
// address differs).  Distinct-but-equal copies of B simply don't batch.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/scheduler.hpp"
#include "sparse/csr.hpp"

namespace oocgemm::serve {

/// Cheap identity key for a shared operand.
struct OperandFingerprint {
  const void* storage = nullptr;  // address of the Csr object
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t nnz = 0;

  friend bool operator==(const OperandFingerprint& a,
                         const OperandFingerprint& b) {
    return a.storage == b.storage && a.rows == b.rows && a.cols == b.cols &&
           a.nnz == b.nnz;
  }
};

OperandFingerprint FingerprintOperand(const sparse::Csr& m);

/// True when `item` may lead or join an operand-sharing batch: it wants (or
/// tolerates) the asynchronous GPU path and admission found a feasible
/// device plan.  Explicit CPU/sync/hybrid requests are honoured unbatched.
bool BatchEligible(const ScheduledJob& item);

/// True when `candidate` can ride in `leader`'s batch: both eligible and
/// the same B operand by fingerprint.
bool BatchableWith(const ScheduledJob& leader, const ScheduledJob& candidate);

/// Peels up to `max_companions` batchable companions for `leader` out of
/// `queue` (in queue order).  Returns only the companions; the leader stays
/// with the caller.
std::vector<std::unique_ptr<ScheduledJob>> PeelBatchCompanions(
    const ScheduledJob& leader, JobQueue& queue, std::size_t max_companions);

/// Device capacity a batch needs: the members run sequentially on one
/// shared workspace (partition::WorkspaceFor) of the largest pool and
/// panels over their plans — not the sum of the members' demands, and not
/// the largest one either.
std::int64_t BatchPlannedDeviceBytes(
    const std::vector<std::unique_ptr<ScheduledJob>>& batch);

}  // namespace oocgemm::serve
