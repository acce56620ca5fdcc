#include "vgpu/device.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

namespace oocgemm::vgpu {

DeviceProperties V100Properties() { return DeviceProperties{}; }

DeviceProperties ScaledV100Properties(int mem_shift) {
  OOC_CHECK(mem_shift >= 0 && mem_shift < 40);
  DeviceProperties p;
  p.name = "Virtual Tesla V100 (1/" + std::to_string(1ll << mem_shift) +
           " scale)";
  p.memory_bytes >>= mem_shift;
  const double factor = 1.0 / static_cast<double>(1ll << mem_shift);
  p.kernel_launch_overhead *= factor;
  p.transfer_latency *= factor;
  p.alloc_overhead *= factor;
  p.free_overhead *= factor;
  return p;
}

namespace {

std::byte* MapArena(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  void* arena = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (arena == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::byte*>(arena);
}

}  // namespace

void Device::ArenaUnmap::operator()(std::byte* arena) const {
  munmap(arena, bytes);
}

Device::Device(DeviceProperties props)
    : props_(std::move(props)),
      arena_(MapArena(static_cast<std::size_t>(props_.memory_bytes)),
             ArenaUnmap{static_cast<std::size_t>(props_.memory_bytes)}),
      allocator_(props_.memory_bytes) {
  sync_stream_ = CreateStream("sync-copies");
  BindMetrics();
}

void Device::BindMetrics() {
  auto& reg = obs::MetricsRegistry::Default();
  const obs::Labels labels = {{"device", std::to_string(id_)}};
  metrics_.h2d_bytes = &reg.GetCounter(
      "oocgemm_vgpu_h2d_bytes", labels, "Bytes copied host-to-device");
  metrics_.d2h_bytes = &reg.GetCounter(
      "oocgemm_vgpu_d2h_bytes", labels, "Bytes copied device-to-host");
  metrics_.h2d_seconds = &reg.GetDoubleCounter(
      "oocgemm_vgpu_h2d_seconds", labels,
      "Virtual seconds the H2D copy engine was busy");
  metrics_.d2h_seconds = &reg.GetDoubleCounter(
      "oocgemm_vgpu_d2h_seconds", labels,
      "Virtual seconds the D2H copy engine was busy");
  metrics_.kernel_launches = &reg.GetCounter(
      "oocgemm_vgpu_kernel_launches", labels, "Kernel launches issued");
  metrics_.kernel_seconds = &reg.GetDoubleCounter(
      "oocgemm_vgpu_kernel_seconds", labels,
      "Virtual seconds the compute engine was busy");
  metrics_.allocs = &reg.GetCounter(
      "oocgemm_vgpu_allocs", labels, "Successful device allocations");
  metrics_.frees = &reg.GetCounter(
      "oocgemm_vgpu_frees", labels, "Device frees");
  metrics_.alloc_bytes = &reg.GetCounter(
      "oocgemm_vgpu_alloc_bytes", labels,
      "Bytes handed out by the device allocator (cumulative)");
  metrics_.faults = &reg.GetCounter(
      "oocgemm_vgpu_faults", labels, "Injected faults that fired");
  metrics_.used_bytes = &reg.GetGauge(
      "oocgemm_vgpu_used_bytes", labels, "Live device memory in use");
}

StatusOr<DevicePtr> Device::Malloc(HostContext& host, std::int64_t bytes,
                                   const std::string& label) {
  if (dead()) {
    return Status::Unavailable("device lost: malloc '" + label + "' refused");
  }
  // kAlloc faults are evaluated inside the allocator (one schedule shared
  // with allocator-level users); here we only surface a kill that fired.
  auto result = allocator_.Allocate(bytes, label);
  if (injector_ != nullptr && injector_->device_dead() && !dead()) {
    MarkDead("injected device loss at alloc '" + label + "'");
    trace_.Add({OpCategory::kFault, "fault:alloc-kill:" + label, -1,
                Interval{host.now, host.now}, 0});
    metrics_.faults->Add(1);
  }
  if (!result.ok()) return result.status();
  SerializeDevice(host, props_.alloc_overhead, OpCategory::kAlloc, label);
  metrics_.allocs->Add(1);
  metrics_.alloc_bytes->Add(bytes);
  metrics_.used_bytes->Set(allocator_.used_bytes());
  return result;
}

void Device::Free(HostContext& host, DevicePtr ptr) {
  if (ptr.is_null()) return;
  // Bookkeeping always runs, even on a lost device: the host-side arena
  // accounting must return to baseline so pools/caches can unwind cleanly
  // after a failure.  Only the timing side effect is skipped when dead.
  allocator_.Free(ptr);
  metrics_.frees->Add(1);
  metrics_.used_bytes->Set(allocator_.used_bytes());
  if (dead()) return;
  SerializeDevice(host, props_.free_overhead, OpCategory::kFree, "free");
}

std::byte* Device::Raw(DevicePtr ptr) {
  OOC_CHECK(!ptr.is_null());
  OOC_CHECK(ptr.offset + ptr.size <= props_.memory_bytes);
  return arena_.get() + ptr.offset;
}

const std::byte* Device::Raw(DevicePtr ptr) const {
  OOC_CHECK(!ptr.is_null());
  OOC_CHECK(ptr.offset + ptr.size <= props_.memory_bytes);
  return arena_.get() + ptr.offset;
}

Stream* Device::CreateStream(const std::string& name) {
  streams_.emplace_back(next_stream_id_++, name);
  return &streams_.back();
}

void Device::DestroyStream(Stream* stream) {
  streams_.remove_if([stream](const Stream& s) { return &s == stream; });
}

SimTime Device::QuiesceTime() const {
  return std::max({compute_.free_at(), h2d_.free_at(), d2h_.free_at()});
}

void Device::SerializeDevice(HostContext& host, double overhead,
                             OpCategory category, const std::string& label) {
  const SimTime start = std::max(host.now, QuiesceTime());
  const SimTime end = start + overhead;
  compute_.Fence(end);
  h2d_.Fence(end);
  d2h_.Fence(end);
  host.AdvanceTo(end);
  trace_.Add({category, label, -1, Interval{start, end}, 0});
}

void Device::CheckHazards(const std::string& label, const Interval& interval,
                          const std::vector<Region>& regions) {
  if (!hazard_checking_ || regions.empty()) return;
  for (const auto& past : hazard_history_) {
    if (!past.interval.Overlaps(interval)) continue;
    for (const auto& r : regions) {
      for (const auto& p : past.regions) {
        if (!(r.write || p.write)) continue;
        const bool bytes_overlap =
            r.offset < p.offset + p.size && p.offset < r.offset + r.size;
        if (bytes_overlap) {
          hazard_violations_.push_back(
              "virtual-time data race: '" + label + "' [" +
              std::to_string(interval.start) + "," +
              std::to_string(interval.end) + ") conflicts with '" +
              past.label + "' on device bytes [" +
              std::to_string(std::max(r.offset, p.offset)) + "..)");
        }
      }
    }
  }
  hazard_history_.push_back({interval, regions, label});
}

void Device::set_fault_injector(FaultInjector* injector) {
  injector_ = injector;
  allocator_.set_fault_injector(injector);
}

void Device::Revive() {
  fault_status_ = Status::Ok();
  dead_status_ = Status::Ok();
  if (injector_ != nullptr) injector_->Revive();
}

void Device::MarkDead(const std::string& description) {
  if (injector_ != nullptr) injector_->KillDevice();
  dead_status_ = Status::Unavailable("device lost: " + description);
}

void Device::ScrambleBytes(void* data, std::int64_t bytes) {
  auto* p = static_cast<unsigned char*>(data);
  for (std::int64_t i = 0; i < bytes; ++i) p[i] ^= 0xa5;
}

std::optional<FiredFault> Device::EvaluateFault(HostContext& host,
                                                FaultSite site, int stream_id,
                                                const std::string& label) {
  if (injector_ == nullptr) return std::nullopt;
  auto fired = injector_->Evaluate(site, label);
  if (!fired) return std::nullopt;
  trace_.Add({OpCategory::kFault, "fault:" + fired->description + ":" + label,
              stream_id, Interval{host.now, host.now}, 0});
  metrics_.faults->Add(1);
  switch (fired->action) {
    case FaultAction::kFail:
      if (fault_status_.ok()) {
        fault_status_ =
            Status::Internal("injected fault: " + fired->description);
      }
      break;
    case FaultAction::kCorrupt:
      if (fault_status_.ok()) {
        fault_status_ =
            Status::DataLoss("detected corruption: " + fired->description);
      }
      break;
    case FaultAction::kKillDevice:
      MarkDead(fired->description);
      break;
    case FaultAction::kDelay:
      break;
  }
  return fired;
}

void Device::LaunchKernel(HostContext& host, Stream& stream,
                          const std::string& label, double cost_seconds,
                          std::vector<Region> regions,
                          const std::function<void()>& body) {
  OOC_CHECK(cost_seconds >= 0.0);
  if (dead()) return;  // lost device: launches vanish
  if (auto fired = EvaluateFault(host, FaultSite::kKernel, stream.id(), label)) {
    // kFail/kCorrupt/kKillDevice all suppress the body: the kernel never
    // produced (trustworthy) output, and the sticky status records that.
    if (fired->action != FaultAction::kDelay) return;
    cost_seconds += fired->delay_seconds;
  }
  body();  // eager execution: results are real
  host.now += props_.kernel_launch_overhead;
  const SimTime ready = std::max(host.now, stream.last_end());
  const Interval iv = compute_.Acquire(ready, cost_seconds);
  stream.AdvanceTo(iv.end);
  CheckHazards(label, iv, regions);
  trace_.Add({OpCategory::kKernel, label, stream.id(), iv, 0});
  metrics_.kernel_launches->Add(1);
  metrics_.kernel_seconds->Add(iv.end - iv.start);
}

void Device::LaunchKernelCosted(HostContext& host, Stream& stream,
                                const std::string& label,
                                std::vector<Region> regions,
                                const std::function<double()>& body) {
  if (dead()) return;
  double extra_cost = 0.0;
  if (auto fired = EvaluateFault(host, FaultSite::kKernel, stream.id(), label)) {
    if (fired->action != FaultAction::kDelay) return;
    extra_cost = fired->delay_seconds;
  }
  const double cost_seconds = body() + extra_cost;
  OOC_CHECK(cost_seconds >= 0.0);
  host.now += props_.kernel_launch_overhead;
  const SimTime ready = std::max(host.now, stream.last_end());
  const Interval iv = compute_.Acquire(ready, cost_seconds);
  stream.AdvanceTo(iv.end);
  CheckHazards(label, iv, regions);
  trace_.Add({OpCategory::kKernel, label, stream.id(), iv, 0});
  metrics_.kernel_launches->Add(1);
  metrics_.kernel_seconds->Add(iv.end - iv.start);
}

void Device::MemcpyH2DAsync(HostContext& host, Stream& stream, DevicePtr dst,
                            const void* src, std::int64_t bytes,
                            const std::string& label, bool pinned) {
  OOC_CHECK(bytes >= 0 && bytes <= dst.size);
  if (dead()) return;  // lost device: transfers vanish
  double extra_delay = 0.0;
  bool corrupt = false;
  if (auto fired = EvaluateFault(host, FaultSite::kH2D, stream.id(), label)) {
    switch (fired->action) {
      case FaultAction::kFail:
      case FaultAction::kKillDevice:
        return;  // no data moved; sticky status already set
      case FaultAction::kCorrupt: corrupt = true; break;
      case FaultAction::kDelay: extra_delay = fired->delay_seconds; break;
    }
  }
  if (bytes > 0) std::memcpy(Raw(dst), src, static_cast<std::size_t>(bytes));
  if (corrupt && bytes > 0) ScrambleBytes(Raw(dst), bytes);
  double bw = props_.h2d_bandwidth * (pinned ? 1.0 : props_.pageable_bandwidth_factor);
  const double cost =
      props_.transfer_latency + static_cast<double>(bytes) / bw + extra_delay;
  const SimTime ready = std::max(host.now, stream.last_end());
  const Interval iv = h2d_.Acquire(ready, cost);
  stream.AdvanceTo(iv.end);
  CheckHazards(label, iv, {{dst.offset, bytes, /*write=*/true}});
  trace_.Add({OpCategory::kH2D, label, stream.id(), iv, bytes});
  metrics_.h2d_bytes->Add(bytes);
  metrics_.h2d_seconds->Add(iv.end - iv.start);
  if (!pinned) host.AdvanceTo(iv.end);  // pageable copies block the host
}

void Device::MemcpyD2HAsync(HostContext& host, Stream& stream, void* dst,
                            DevicePtr src, std::int64_t bytes,
                            const std::string& label, bool pinned) {
  OOC_CHECK(bytes >= 0 && bytes <= src.size);
  if (dead()) return;
  double extra_delay = 0.0;
  bool corrupt = false;
  if (auto fired = EvaluateFault(host, FaultSite::kD2H, stream.id(), label)) {
    switch (fired->action) {
      case FaultAction::kFail:
      case FaultAction::kKillDevice:
        return;
      case FaultAction::kCorrupt: corrupt = true; break;
      case FaultAction::kDelay: extra_delay = fired->delay_seconds; break;
    }
  }
  if (bytes > 0) std::memcpy(dst, Raw(src), static_cast<std::size_t>(bytes));
  if (corrupt && bytes > 0) ScrambleBytes(dst, bytes);
  double bw = props_.d2h_bandwidth * (pinned ? 1.0 : props_.pageable_bandwidth_factor);
  const double cost =
      props_.transfer_latency + static_cast<double>(bytes) / bw + extra_delay;
  const SimTime ready = std::max(host.now, stream.last_end());
  const Interval iv = d2h_.Acquire(ready, cost);
  stream.AdvanceTo(iv.end);
  CheckHazards(label, iv, {{src.offset, bytes, /*write=*/false}});
  trace_.Add({OpCategory::kD2H, label, stream.id(), iv, bytes});
  metrics_.d2h_bytes->Add(bytes);
  metrics_.d2h_seconds->Add(iv.end - iv.start);
  if (!pinned) host.AdvanceTo(iv.end);
}

void Device::MemcpyH2D(HostContext& host, DevicePtr dst, const void* src,
                       std::int64_t bytes, const std::string& label) {
  MemcpyH2DAsync(host, *sync_stream_, dst, src, bytes, label);
  StreamSynchronize(host, *sync_stream_);
}

void Device::MemcpyD2H(HostContext& host, void* dst, DevicePtr src,
                       std::int64_t bytes, const std::string& label) {
  MemcpyD2HAsync(host, *sync_stream_, dst, src, bytes, label);
  StreamSynchronize(host, *sync_stream_);
}

void Device::ResetTimeline() {
  fault_status_ = Status::Ok();  // transient faults clear; device-lost stays
  trace_.Clear();
  hazard_history_.clear();
  hazard_violations_.clear();
  compute_ = Resource{"compute"};
  h2d_ = Resource{"h2d"};
  d2h_ = Resource{"d2h"};
  for (auto& s : streams_) s = Stream(s.id(), s.name());
}

}  // namespace oocgemm::vgpu
