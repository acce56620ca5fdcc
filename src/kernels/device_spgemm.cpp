#include "kernels/device_spgemm.hpp"

#include <algorithm>
#include <numeric>

#include "common/prefix_sum.hpp"
#include "kernels/cost_model.hpp"
#include "kernels/kernel_registry.hpp"
#include "obs/kernel_metrics.hpp"
#include "obs/metrics.hpp"

namespace oocgemm::kernels {

using sparse::index_t;
using sparse::offset_t;
using sparse::value_t;
using vgpu::Region;

ChunkPipeline::ChunkPipeline(vgpu::Device& device,
                             const DeviceSpgemmOptions& options,
                             AccumulatorScratch& scratch)
    : device_(device), options_(options), scratch_(scratch) {}

Status ChunkPipeline::RunAnalysis(vgpu::HostContext& host,
                                  vgpu::Stream& stream,
                                  const DeviceCsr& a_panel,
                                  const DeviceCsr& b_panel,
                                  vgpu::DeviceMemorySource& source,
                                  const std::string& tag) {
  OOC_CHECK(stage_ == 0);
  OOC_CHECK(a_panel.cols == b_panel.rows);
  a_panel_ = &a_panel;
  b_panel_ = &b_panel;
  source_ = &source;
  tag_ = tag;

  const index_t rows = a_panel.rows;
  product_ = ChunkProduct{};
  product_.rows = rows;
  product_.cols = b_panel.cols;

  auto flops_alloc = source.Allocate(
      host, static_cast<std::int64_t>(rows) * 8, tag + ".row_flops");
  if (!flops_alloc.ok()) return flops_alloc.status();
  product_.d_scratch_row_flops = flops_alloc.value();
  auto nnz_alloc = source.Allocate(host, static_cast<std::int64_t>(rows) * 8,
                                   tag + ".row_nnz");
  if (!nnz_alloc.ok()) return nnz_alloc.status();
  product_.d_scratch_row_nnz = nnz_alloc.value();

  const offset_t* a_ro = device_.As<offset_t>(a_panel.row_offsets);
  const index_t* a_ci = device_.As<index_t>(a_panel.col_ids);
  const offset_t* b_ro = device_.As<offset_t>(b_panel.row_offsets);
  std::int64_t* row_flops =
      device_.As<std::int64_t>(product_.d_scratch_row_flops);
  std::int64_t* row_nnz = device_.As<std::int64_t>(product_.d_scratch_row_nnz);

  device_.LaunchKernel(
      host, stream, tag + ".analysis",
      kCostModel.GpuAnalysisSeconds(a_panel.nnz),
      {Region{a_panel.row_offsets.offset, a_panel.row_offsets.size, false},
       Region{a_panel.col_ids.offset, a_panel.col_ids.size, false},
       Region{b_panel.row_offsets.offset, b_panel.row_offsets.size, false},
       Region{product_.d_scratch_row_flops.offset,
              static_cast<std::int64_t>(rows) * 8, true},
       Region{product_.d_scratch_row_nnz.offset,
              static_cast<std::int64_t>(rows) * 8, true}},
      [=] {
        for (index_t r = 0; r < rows; ++r) {
          std::int64_t f = 0;
          for (offset_t k = a_ro[r]; k < a_ro[r + 1]; ++k) {
            const index_t mid = a_ci[k];
            f += b_ro[mid + 1] - b_ro[mid];
          }
          row_flops[r] = 2 * f;
          row_nnz[r] = 0;  // rows with no work keep a zero count
        }
      });

  // "Then, we transfer this collected information from device memory to the
  // host memory" — the small info transfer the asynchronous scheduler
  // deliberately issues before the previous chunk's payload (Fig. 6, #1).
  h_flops_.resize(static_cast<std::size_t>(rows));
  device_.MemcpyD2HAsync(host, stream, h_flops_.data(),
                         product_.d_scratch_row_flops,
                         static_cast<std::int64_t>(rows) * 8,
                         tag + ".analysis.info");
  device_.StreamSynchronize(host, stream);  // host grouping needs the info
  // Sticky-error checkpoint: a faulted kernel or info transfer leaves
  // h_flops_ stale (possibly from the previous chunk); grouping on stale
  // counts would size every later allocation from garbage.
  OOC_RETURN_IF_ERROR(device_.health());

  product_.flops = std::accumulate(h_flops_.begin(), h_flops_.end(),
                                   static_cast<std::int64_t>(0));
  // Pre-symbolic routing: per-group strategy from flops alone (occupancy
  // model density), mirroring the host path's first RouteRows pass.
  routed_ = RouteRows(h_flops_.data(), h_flops_.data(), nullptr,
                      h_flops_.size(), b_panel.cols, options_.accumulator,
                      options_.routing);
  stage_ = 1;
  return Status::Ok();
}

Status ChunkPipeline::RunSymbolic(vgpu::HostContext& host,
                                  vgpu::Stream& stream) {
  OOC_CHECK(stage_ == 1);
  const index_t rows = product_.rows;
  const DeviceCsr& a_panel = *a_panel_;
  const DeviceCsr& b_panel = *b_panel_;

  const offset_t* a_ro = device_.As<offset_t>(a_panel.row_offsets);
  const index_t* a_ci = device_.As<index_t>(a_panel.col_ids);
  const offset_t* b_ro = device_.As<offset_t>(b_panel.row_offsets);
  const index_t* b_ci = device_.As<index_t>(b_panel.col_ids);
  std::int64_t* row_nnz = device_.As<std::int64_t>(product_.d_scratch_row_nnz);

  // cr estimate for the symbolic cost only; numeric uses the measured value.
  const double cr_estimate = 2.0;

  for (int g = 1; g < kNumRowGroups; ++g) {  // group 0 holds empty rows
    const auto& rows_in_group =
        routed_.groups.groups[static_cast<std::size_t>(g)];
    if (rows_in_group.empty()) continue;
    const AccumulatorKind kind = routed_.strategy[static_cast<std::size_t>(g)];
    std::int64_t group_flops = 0;
    for (index_t r : rows_in_group) {
      group_flops += h_flops_[static_cast<std::size_t>(r)];
    }
    const double kernel_seconds =
        kCostModel.GpuSymbolicSeconds(group_flops, cr_estimate);
    obs::KernelMetricsFor(AccumulatorKindName(kind))
        .symbolic_seconds->Add(kernel_seconds);
    device_.LaunchKernel(
        host, stream,
        tag_ + ".symbolic.g" + std::to_string(g) + "." +
            AccumulatorKindName(kind),
        kernel_seconds,
        {Region{a_panel.col_ids.offset, a_panel.col_ids.size, false},
         Region{b_panel.col_ids.offset, b_panel.col_ids.size, false},
         Region{product_.d_scratch_row_nnz.offset,
                static_cast<std::int64_t>(rows) * 8, true}},
        [this, g, kind, a_ro, a_ci, b_ro, b_ci, row_nnz, &b_panel] {
          SymbolicRows(a_ro, a_ci, b_ro, b_ci, b_panel.cols,
                       routed_.groups.groups[static_cast<std::size_t>(g)],
                       h_flops_.data(), kind, scratch_, row_nnz);
        });
  }

  // Fig. 6, #3: the symbolic-info transfer.
  h_row_nnz_.resize(static_cast<std::size_t>(rows));
  device_.MemcpyD2HAsync(host, stream, h_row_nnz_.data(),
                         product_.d_scratch_row_nnz,
                         static_cast<std::int64_t>(rows) * 8,
                         tag_ + ".symbolic.info");
  device_.StreamSynchronize(host, stream);  // allocation sizing needs counts
  // Same checkpoint as the analysis info: never size the output arrays from
  // a readback a fault may have skipped or scrambled.
  OOC_RETURN_IF_ERROR(device_.health());

  product_.row_offsets.resize(static_cast<std::size_t>(rows) + 1);
  product_.nnz = ExclusiveScan(h_row_nnz_.data(), h_row_nnz_.size(),
                               product_.row_offsets.data());
  product_.compression_ratio =
      product_.nnz > 0 ? static_cast<double>(product_.flops) /
                             static_cast<double>(product_.nnz)
                       : 1.0;

  // Output allocation — the step that forbids asynchrony under dynamic
  // allocation: with a MallocMemorySource each call serializes the device.
  auto ro_alloc = source_->Allocate(
      host, static_cast<std::int64_t>(rows + 1) * sizeof(offset_t),
      tag_ + ".c.row_offsets");
  if (!ro_alloc.ok()) return ro_alloc.status();
  product_.d_row_offsets = ro_alloc.value();
  auto ci_alloc = source_->Allocate(
      host, product_.nnz * static_cast<std::int64_t>(sizeof(index_t)),
      tag_ + ".c.col_ids");
  if (!ci_alloc.ok()) return ci_alloc.status();
  product_.d_col_ids = ci_alloc.value();
  auto va_alloc = source_->Allocate(
      host, product_.nnz * static_cast<std::int64_t>(sizeof(value_t)),
      tag_ + ".c.values");
  if (!va_alloc.ok()) return va_alloc.status();
  product_.d_values = va_alloc.value();

  device_.MemcpyH2DAsync(host, stream, product_.d_row_offsets,
                         product_.row_offsets.data(),
                         static_cast<std::int64_t>(rows + 1) *
                             static_cast<std::int64_t>(sizeof(offset_t)),
                         tag_ + ".c.row_offsets");
  stage_ = 2;
  return Status::Ok();
}

void ChunkPipeline::RunNumeric(vgpu::HostContext& host, vgpu::Stream& stream) {
  OOC_CHECK(stage_ == 2);
  const DeviceCsr& a_panel = *a_panel_;
  const DeviceCsr& b_panel = *b_panel_;

  const offset_t* a_ro = device_.As<offset_t>(a_panel.row_offsets);
  const index_t* a_ci = device_.As<index_t>(a_panel.col_ids);
  const value_t* a_va = device_.As<value_t>(a_panel.values);
  const offset_t* b_ro = device_.As<offset_t>(b_panel.row_offsets);
  const index_t* b_ci = device_.As<index_t>(b_panel.col_ids);
  const value_t* b_va = device_.As<value_t>(b_panel.values);
  const offset_t* c_ro = device_.As<offset_t>(product_.d_row_offsets);
  index_t* c_ci = device_.As<index_t>(product_.d_col_ids);
  value_t* c_va = device_.As<value_t>(product_.d_values);

  // "We re-assign rows of matrix A based on the number of non-zero elements
  // to achieve global load balance again" — regroup by output-row nnz, and
  // re-route each class now that exact densities are known.
  RoutedGroups numeric_routed =
      RouteRows(h_row_nnz_.data(), h_flops_.data(), h_row_nnz_.data(),
                h_row_nnz_.size(), b_panel.cols, options_.accumulator,
                options_.routing);
  RecordRoutedRows(numeric_routed);
  // Per-device flop accounting: paired with oocgemm_vgpu_kernel_seconds it
  // is the (flops, seconds) sample stream the cost-model calibrator fits a
  // per-device effective rate from.
  obs::MetricsRegistry::Default()
      .GetCounter("oocgemm_kernels_device_flops",
                  {{"device", std::to_string(device_.id())}},
                  "Numeric flops executed on this device")
      .Add(product_.flops);
  const double cr = product_.compression_ratio;

  for (int g = 0; g < kNumRowGroups; ++g) {
    const auto& rows_in_group =
        numeric_routed.groups.groups[static_cast<std::size_t>(g)];
    if (rows_in_group.empty()) continue;
    const AccumulatorKind kind =
        numeric_routed.strategy[static_cast<std::size_t>(g)];
    std::int64_t group_flops = 0;
    for (index_t r : rows_in_group) {
      group_flops += h_flops_[static_cast<std::size_t>(r)];
    }
    if (group_flops == 0) continue;  // empty rows: nothing to write
    const obs::KernelStrategyMetrics metrics =
        obs::KernelMetricsFor(AccumulatorKindName(kind));
    device_.LaunchKernelCosted(
        host, stream,
        tag_ + ".numeric.g" + std::to_string(g) + "." +
            AccumulatorKindName(kind),
        {Region{a_panel.col_ids.offset, a_panel.col_ids.size, false},
         Region{b_panel.col_ids.offset, b_panel.col_ids.size, false},
         Region{b_panel.values.offset, b_panel.values.size, false},
         Region{product_.d_col_ids.offset, product_.d_col_ids.size, true},
         Region{product_.d_values.offset, product_.d_values.size, true}},
        [&, kind, group_flops, cr, metrics]() -> double {
          NumericRows(a_ro, a_ci, a_va, b_ro, b_ci, b_va, b_panel.cols,
                      rows_in_group, h_flops_.data(), kind, scratch_, c_ro,
                      c_ci, c_va);
          const double seconds = kCostModel.GpuNumericSeconds(group_flops, cr);
          metrics.numeric_seconds->Add(seconds);
          return seconds;
        });
  }
  if (options_.accumulator == AccumulatorKind::kAuto) {
    RecordRoutingQuality(numeric_routed, h_flops_.data(), h_row_nnz_.data(),
                         b_panel.cols);
  }
  stage_ = 3;
}

void ReleaseChunk(vgpu::HostContext& host, vgpu::DeviceMemorySource& source,
                  ChunkProduct& chunk) {
  source.Release(host, chunk.d_row_offsets);
  source.Release(host, chunk.d_col_ids);
  source.Release(host, chunk.d_values);
  source.Release(host, chunk.d_scratch_row_flops);
  source.Release(host, chunk.d_scratch_row_nnz);
  chunk.d_row_offsets = chunk.d_col_ids = chunk.d_values = vgpu::DevicePtr{};
  chunk.d_scratch_row_flops = chunk.d_scratch_row_nnz = vgpu::DevicePtr{};
}

}  // namespace oocgemm::kernels
