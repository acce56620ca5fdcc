// Device-resident CSR panels.
//
// Panels of A and B live in device memory as the usual three CSR arrays
// (Section III-A of the paper: "we store data using CSR format on device
// memory because it is the most commonly used data format").  The panel
// cache (core/panel_cache.hpp) uploads them into slots it pre-allocated;
// ChunkPipeline reads them.
#pragma once

#include <cstdint>

#include "sparse/csr.hpp"
#include "vgpu/device.hpp"

namespace oocgemm::kernels {

struct DeviceCsr {
  sparse::index_t rows = 0;
  sparse::index_t cols = 0;
  std::int64_t nnz = 0;
  vgpu::DevicePtr row_offsets;  // (rows + 1) offset_t
  vgpu::DevicePtr col_ids;      // nnz index_t
  vgpu::DevicePtr values;       // nnz value_t
};

}  // namespace oocgemm::kernels
