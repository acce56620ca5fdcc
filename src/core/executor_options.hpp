// Configuration shared by the out-of-core executors.  Every paper design
// choice that the evaluation ablates is a switch here.
#pragma once

#include <chrono>

#include "kernels/device_spgemm.hpp"
#include "partition/panel_plan.hpp"

namespace oocgemm::core {

/// How the previous chunk's output payload is moved while the next chunk
/// computes (Section IV-B).
enum class TransferSchedule {
  /// The paper's design: the payload is split in two portions; the small
  /// analysis/symbolic info transfers of the next chunk are interleaved
  /// between them (Fig. 6).
  kScheduled,
  /// The rejected "simple idea": the whole payload is queued right after
  /// the chunk's numeric phase, so the next chunk's info transfers stall
  /// behind it on the single D2H engine (Fig. 5).
  kNaive,
};

struct ExecutorOptions {
  kernels::DeviceSpgemmOptions spgemm;
  partition::PlanOptions plan;

  /// Execute chunks in decreasing-flop order (Section IV-C).  Off = the
  /// row-major order of Algorithm 3.
  bool reorder_chunks = true;

  TransferSchedule transfer_schedule = TransferSchedule::kScheduled;

  /// Fraction of a chunk's rows in the first transferred portion (the
  /// paper found 33% leaves the remainder to hide the numeric phase).
  double split_fraction = 0.33;

  /// Host staging buffers are page-locked (full-bandwidth async copies).
  bool pinned_host = true;

  /// Hybrid executor: fraction of total flops assigned to the GPU.  The
  /// paper's rule is Ratio = S/(S+1) for the hardware's expected GPU/CPU
  /// speedup S — 65% on their V100/Xeon pair, and, as they note, "it might
  /// change if we use another GPU or CPU".  The virtual device's measured
  /// S is ~2.05 (Fig. 7 bench), giving 67%.
  double gpu_ratio = 0.67;

  /// Wall-clock deadline; max() means none.  The executors compare it with
  /// now() at chunk boundaries and before each OOM-retry attempt, returning
  /// StatusCode::kCancelled once it has passed.  The serving runtime sets it
  /// from a job's timeout to reclaim a worker from an over-deadline job.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  /// Attempts on pool overflow, each after the first doubling
  /// nnz_safety_factor and re-planning (core::RetryWithReplan).  The serving
  /// scheduler spends a job's budget through the same helper, so every
  /// executor call inside it makes one attempt.
  int max_oom_attempts = 4;
};

/// True once `deadline` has passed; never for the max() "no deadline".
inline bool DeadlinePassed(std::chrono::steady_clock::time_point deadline) {
  return deadline != std::chrono::steady_clock::time_point::max() &&
         std::chrono::steady_clock::now() >= deadline;
}

}  // namespace oocgemm::core
