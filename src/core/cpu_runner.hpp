// The CPU half of the hybrid executor: runs a set of chunks through the
// Nagasaka-style multicore SpGEMM, producing host payloads directly (no
// transfers), with virtual time from the calibrated CPU cost model.
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/assembler.hpp"
#include "core/executor_options.hpp"
#include "core/problem.hpp"

namespace oocgemm::core {

struct CpuRunOutput {
  std::vector<ChunkPayload> payloads;
  /// Total virtual busy time of the CPU worker (chunks run sequentially;
  /// intra-chunk parallelism is inside the cost model's rate).
  double busy_seconds = 0.0;
  int chunks_run = 0;
  std::int64_t flops = 0;
  std::int64_t nnz = 0;
  /// Set when ExecutorOptions::deadline passed mid-run: the payload list is
  /// incomplete and the caller must not assemble a result from it.
  bool cancelled = false;
};

/// Books CPU work on the (flops, seconds) sample stream the calibrator fits
/// the CPU effective rate from — the denominator of the live hybrid split.
void RecordCpuWork(std::int64_t flops, double seconds);

/// Runs chunks `order[...]` of `prep` on the CPU.
CpuRunOutput RunCpuChunks(const PreparedProblem& prep,
                          const std::vector<int>& order,
                          const ExecutorOptions& options, ThreadPool& pool);

}  // namespace oocgemm::core
