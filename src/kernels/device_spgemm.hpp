// The in-core GPU SpGEMM pipeline (Section III-B / Fig. 3 of the paper),
// issued as virtual-GPU kernels and transfers on a caller-supplied stream:
//
//   1. Analysis: row-analysis kernel -> D2H of per-row flops -> host
//      row grouping.
//   2. Symbolic: one kernel per row group -> D2H of per-row nnz -> host
//      prefix sum -> output allocation -> H2D of the row offsets.
//   3. Numeric: host regrouping by output nnz -> one kernel per group.
//
// The three stages are exposed individually (ChunkPipeline) because the
// asynchronous executor interleaves the *previous* chunk's output transfers
// between them (Section IV-B, Fig. 6).  The result chunk's col_ids/values
// stay in device memory: the executors own the payload D2H so they can
// split and schedule it.
//
// All scratch comes from a DeviceMemorySource: a pool (the paper's design,
// no device serialization) or raw Mallocs (the spECK-baseline behaviour).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "kernels/accumulators.hpp"
#include "kernels/binning.hpp"
#include "kernels/device_csr.hpp"
#include "kernels/spgemm_phases.hpp"
#include "sparse/csr.hpp"
#include "vgpu/device.hpp"
#include "vgpu/memory_source.hpp"

namespace oocgemm::kernels {

struct DeviceSpgemmOptions {
  AccumulatorKind accumulator = AccumulatorKind::kAuto;
  /// Calibrated routing scales (identity = static cost model).
  RouteCalibration routing;
};

/// Output of one chunk multiplication, still resident on the device.
struct ChunkProduct {
  sparse::index_t rows = 0;
  sparse::index_t cols = 0;
  std::int64_t nnz = 0;
  std::int64_t flops = 0;
  double compression_ratio = 1.0;

  /// Host copy of the (panel-local) row offsets, produced by the symbolic
  /// phase; rows + 1 entries.
  std::vector<sparse::offset_t> row_offsets;

  /// Device-resident payload.
  vgpu::DevicePtr d_row_offsets;
  vgpu::DevicePtr d_col_ids;
  vgpu::DevicePtr d_values;

  /// Pipeline scratch (per-row flops/nnz) kept so the caller can release
  /// everything through the same memory source.
  vgpu::DevicePtr d_scratch_row_flops;
  vgpu::DevicePtr d_scratch_row_nnz;

  std::int64_t payload_bytes() const {
    return nnz * static_cast<std::int64_t>(sizeof(sparse::index_t)) +
           nnz * static_cast<std::int64_t>(sizeof(sparse::value_t));
  }
};

/// One chunk's staged execution.  Stages must run in order:
/// RunAnalysis -> RunSymbolic -> RunNumeric.  Between stages the caller may
/// issue unrelated work (other streams' transfers).
class ChunkPipeline {
 public:
  /// `scratch` is the reusable accumulator state shared across chunks (the
  /// no-allocation-in-the-pipeline requirement).
  ChunkPipeline(vgpu::Device& device, const DeviceSpgemmOptions& options,
                AccumulatorScratch& scratch);

  /// Stage 1.  Synchronizes the host on the info transfer (row grouping
  /// happens host-side, as in Fig. 3).
  Status RunAnalysis(vgpu::HostContext& host, vgpu::Stream& stream,
                     const DeviceCsr& a_panel, const DeviceCsr& b_panel,
                     vgpu::DeviceMemorySource& source, const std::string& tag);

  /// Stage 2.  Synchronizes the host on the nnz transfer, then performs the
  /// output allocation (serializing under a dynamic memory source).
  Status RunSymbolic(vgpu::HostContext& host, vgpu::Stream& stream);

  /// Stage 3.
  void RunNumeric(vgpu::HostContext& host, vgpu::Stream& stream);

  const ChunkProduct& product() const { return product_; }
  ChunkProduct TakeProduct() { return std::move(product_); }

 private:
  vgpu::Device& device_;
  const DeviceSpgemmOptions& options_;
  AccumulatorScratch& scratch_;

  // Stage state.
  const DeviceCsr* a_panel_ = nullptr;
  const DeviceCsr* b_panel_ = nullptr;
  vgpu::DeviceMemorySource* source_ = nullptr;
  std::string tag_;
  std::vector<std::int64_t> h_flops_;
  std::vector<std::int64_t> h_row_nnz_;
  RoutedGroups routed_;
  ChunkProduct product_;
  int stage_ = 0;
};

/// Releases every device buffer of `chunk` through `source` (no-op for
/// pool sources, which recycle wholesale).
void ReleaseChunk(vgpu::HostContext& host, vgpu::DeviceMemorySource& source,
                  ChunkProduct& chunk);

}  // namespace oocgemm::kernels
