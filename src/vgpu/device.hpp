// The virtual GPU device.
//
// Execution model (see DESIGN.md "Substitutions"):
//  * Kernel bodies and memcpys execute eagerly on the host in issue order,
//    so all data side effects are real and results are bit-exact testable.
//  * Timing is simulated: every operation occupies one of three serial
//    resources — the compute engine, the H2D copy engine, or the D2H copy
//    engine — for a caller-modeled duration.  Start time honours stream
//    order, awaited events, the issuing host thread's clock, and resource
//    availability.  This reproduces the CUDA constraints the paper designs
//    around: one transfer at a time per direction, and device-wide
//    serialization on cudaMalloc/cudaFree.
//  * An optional hazard checker verifies that eager execution was a legal
//    serialization: any two operations touching overlapping device-memory
//    regions (at least one writing) must not overlap in virtual time.
//  * Fault model (see fault_injector.hpp): when a FaultInjector is
//    installed, operations may fail.  Because the async APIs return void
//    (as CUDA's do), failures follow CUDA's *sticky error* semantics: a
//    failed/corrupted op sets a sticky status on the device, the op's data
//    effect is suppressed (or scrambled, for kCorrupt), and callers observe
//    the error at status-returning checkpoints via health().  A transient
//    fault clears on ResetTimeline (the per-run entry point); a kKillDevice
//    fault marks the device lost — every subsequent op is a silent no-op —
//    until Revive().
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "vgpu/allocator.hpp"
#include "vgpu/fault_injector.hpp"
#include "vgpu/trace.hpp"
#include "vgpu/vtime.hpp"

namespace oocgemm::vgpu {

struct DeviceProperties {
  std::string name = "Virtual Tesla V100";
  int num_sms = 80;                       // Table I
  int fp32_cores = 5120;                  // Table I
  std::int64_t memory_bytes = 16ll << 30; // Table I: 16 GB HBM2

  // Effective PCIe rates.  Deliberately below the link's nominal 12 GB/s:
  // these are *calibrated* together with kernels::CostModel so that the
  // synchronous out-of-core baseline reproduces the paper's Fig. 4
  // transfer-time fractions (77-90%).  See DESIGN.md "Substitutions".
  double h2d_bandwidth = 2.0e9;           // bytes/s
  double d2h_bandwidth = 2.0e9;           // bytes/s
  double pageable_bandwidth_factor = 0.4; // unpinned host memory penalty

  double kernel_launch_overhead = 8e-6;   // host-side cost per launch (s)
  double transfer_latency = 10e-6;        // fixed per-transfer cost (s)
  double alloc_overhead = 120e-6;         // cudaMalloc (s), serializes device
  double free_overhead = 60e-6;           // cudaFree (s), serializes device
};

/// Table I configuration.
DeviceProperties V100Properties();

/// V100 with memory shrunk by 2^mem_shift for scaled-down matrices (keeps
/// the "output exceeds device memory" regime of the paper at test sizes).
/// The fixed per-operation overheads (launch, transfer latency, alloc) are
/// shrunk by the same factor: a miniature device for a miniature problem,
/// so relative magnitudes — the thing every figure depends on — match the
/// full-scale system.
DeviceProperties ScaledV100Properties(int mem_shift);

/// In-order queue of device operations (CUDA stream analogue).
class Stream {
 public:
  Stream(int id, std::string name) : id_(id), name_(std::move(name)) {}

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  SimTime last_end() const { return last_end_; }
  void AdvanceTo(SimTime t) { last_end_ = std::max(last_end_, t); }

 private:
  int id_;
  std::string name_;
  SimTime last_end_ = 0.0;
};

/// A recorded timestamp another stream can wait on (cudaEvent analogue).
struct Event {
  SimTime time = 0.0;
};

/// Byte range a kernel or copy touches, for hazard checking.
struct Region {
  std::int64_t offset = 0;
  std::int64_t size = 0;
  bool write = false;
};

class Device {
 public:
  explicit Device(DeviceProperties props);

  const DeviceProperties& properties() const { return props_; }

  /// Node-level identity of this device (0 when standalone).  Set by
  /// core::DevicePool to the device's pool index; trace export stamps it
  /// on every emitted event so multi-device runs stay attributable.
  int id() const { return id_; }
  void set_id(int id) {
    id_ = id;
    BindMetrics();
  }

  // --- memory -------------------------------------------------------------

  /// cudaMalloc analogue: blocks the host until the allocation completes and
  /// *serializes the whole device* (fences both copy engines and the
  /// compute engine, so no stream's later work starts before it) — the
  /// behaviour that forbids dynamic allocation inside the paper's
  /// asynchronous pipeline.
  StatusOr<DevicePtr> Malloc(HostContext& host, std::int64_t bytes,
                             const std::string& label = "malloc");

  /// cudaFree analogue; same serialization rule.
  void Free(HostContext& host, DevicePtr ptr);

  /// Host-visible backing storage of a device range (kernels use this).
  std::byte* Raw(DevicePtr ptr);
  const std::byte* Raw(DevicePtr ptr) const;

  template <typename T>
  T* As(DevicePtr ptr) {
    return reinterpret_cast<T*>(Raw(ptr));
  }

  std::int64_t used_bytes() const { return allocator_.used_bytes(); }
  std::int64_t peak_bytes() const { return allocator_.peak_bytes(); }
  std::int64_t capacity() const { return allocator_.capacity(); }
  std::int64_t free_bytes() const { return allocator_.free_bytes(); }

  /// Live memory headroom in one consistent snapshot — what an admission
  /// controller needs to decide whether another job's working set fits.
  /// `largest_block` bounds the biggest single allocation that can succeed
  /// right now (free_bytes alone overstates it under fragmentation).
  struct MemoryHeadroom {
    std::int64_t capacity = 0;
    std::int64_t used = 0;
    std::int64_t free = 0;
    std::int64_t largest_block = 0;
  };
  MemoryHeadroom Headroom() const {
    return MemoryHeadroom{allocator_.capacity(), allocator_.used_bytes(),
                          allocator_.free_bytes(),
                          allocator_.largest_free_block()};
  }

  // --- streams & synchronization -------------------------------------------

  /// Creates a stream; the Device owns it and the pointer stays valid until
  /// DestroyStream.  Ids keep counting up, so a trace never reuses one.
  Stream* CreateStream(const std::string& name);
  /// Releases a stream made by CreateStream; work it issued stays booked.
  void DestroyStream(Stream* stream);
  /// Streams created and not yet destroyed.
  std::size_t live_streams() const { return streams_.size(); }

  /// Timestamp of the last operation issued to `stream`.
  Event RecordEvent(const Stream& stream) const { return Event{stream.last_end()}; }

  /// Makes subsequent work on `stream` start no earlier than `event`.
  void StreamWaitEvent(Stream& stream, Event event) {
    stream.AdvanceTo(event.time);
  }

  /// Blocks the host until `stream` drains.
  void StreamSynchronize(HostContext& host, const Stream& stream) {
    host.AdvanceTo(stream.last_end());
  }

  /// Blocks the host until the whole device drains.
  void DeviceSynchronize(HostContext& host) { host.AdvanceTo(QuiesceTime()); }

  /// Virtual time at which everything currently issued has finished: the
  /// latest engine availability.  No stream ends later: a stream advances
  /// only to an engine interval's end or to another stream's event.
  SimTime QuiesceTime() const;

  // --- operations -----------------------------------------------------------

  /// Launches a kernel on `stream`: runs `body` eagerly, books the compute
  /// engine for `cost_seconds`.  `regions` lists touched device memory for
  /// hazard checking (pass {} to skip).  Asynchronous: the host clock only
  /// pays the launch overhead.
  void LaunchKernel(HostContext& host, Stream& stream, const std::string& label,
                    double cost_seconds, std::vector<Region> regions,
                    const std::function<void()>& body);

  /// Variant for kernels whose modeled duration depends on what they compute
  /// (e.g. the numeric phase's rate depends on the measured compression
  /// ratio): `body` runs eagerly and returns the cost in seconds, which is
  /// then booked exactly like LaunchKernel.
  void LaunchKernelCosted(HostContext& host, Stream& stream,
                          const std::string& label, std::vector<Region> regions,
                          const std::function<double()>& body);

  /// Asynchronous host-to-device copy (engine: H2D).  `pinned` marks the
  /// host buffer as page-locked; unpinned copies run at reduced bandwidth
  /// and, like CUDA pageable copies, block the host until complete.
  void MemcpyH2DAsync(HostContext& host, Stream& stream, DevicePtr dst,
                      const void* src, std::int64_t bytes,
                      const std::string& label = "h2d", bool pinned = true);

  /// Asynchronous device-to-host copy (engine: D2H).
  void MemcpyD2HAsync(HostContext& host, Stream& stream, void* dst,
                      DevicePtr src, std::int64_t bytes,
                      const std::string& label = "d2h", bool pinned = true);

  /// Synchronous copies (host blocks until the virtual completion).
  void MemcpyH2D(HostContext& host, DevicePtr dst, const void* src,
                 std::int64_t bytes, const std::string& label = "h2d");
  void MemcpyD2H(HostContext& host, void* dst, DevicePtr src,
                 std::int64_t bytes, const std::string& label = "d2h");

  // --- fault injection & health ---------------------------------------------

  /// Installs (or clears, with nullptr) a fault injector; not owned.  The
  /// injector is threaded into the allocator too, so Malloc-level failures
  /// and transfer/kernel faults share one deterministic schedule.
  void set_fault_injector(FaultInjector* injector);
  FaultInjector* fault_injector() const { return injector_; }

  /// CUDA-style sticky error state.  OK while the device is healthy; the
  /// device-lost status once a kKillDevice fault fired; otherwise the first
  /// transient fault since the last ResetTimeline/Revive.  Executors check
  /// this at their status-returning checkpoints (after synchronizes and
  /// before consuming readbacks).
  Status health() const { return !dead_status_.ok() ? dead_status_ : fault_status_; }

  /// True once the device is lost (kKillDevice); cleared only by Revive.
  bool dead() const { return !dead_status_.ok(); }

  /// Clears both sticky statuses and re-arms the injector's dead flag —
  /// the maintenance path DevicePool::Revive uses to return a drained
  /// device to service.
  void Revive();

  // --- introspection ---------------------------------------------------------

  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }

  void set_hazard_checking(bool enabled) { hazard_checking_ = enabled; }
  /// Descriptions of detected read/write races (empty == clean run).
  const std::vector<std::string>& hazard_violations() const {
    return hazard_violations_;
  }

  /// Resets trace, clocks and hazard history but keeps allocations (for
  /// benchmarks that reuse a warmed-up device).  Also clears any transient
  /// sticky fault — the analogue of a fresh CUDA context check at run
  /// start — but NOT the device-lost state.
  void ResetTimeline();

 private:
  /// Instruments in the default obs registry, labeled {device=<id>}.  They
  /// are recorded exactly where trace events are added, so per-run counter
  /// deltas reconcile with the trace-derived RunStats.
  struct DeviceMetrics {
    obs::Counter* h2d_bytes = nullptr;
    obs::Counter* d2h_bytes = nullptr;
    obs::DoubleCounter* h2d_seconds = nullptr;
    obs::DoubleCounter* d2h_seconds = nullptr;
    obs::Counter* kernel_launches = nullptr;
    obs::DoubleCounter* kernel_seconds = nullptr;
    obs::Counter* allocs = nullptr;
    obs::Counter* frees = nullptr;
    obs::Counter* alloc_bytes = nullptr;
    obs::Counter* faults = nullptr;
    obs::Gauge* used_bytes = nullptr;
  };
  void BindMetrics();

  void SerializeDevice(HostContext& host, double overhead, OpCategory category,
                       const std::string& label);
  void CheckHazards(const std::string& label, const Interval& interval,
                    const std::vector<Region>& regions);

  /// Consults the injector for one op.  Returns the fired fault, already
  /// traced; sets sticky statuses for kFail/kKillDevice.  The caller skips
  /// the op's effect for those two, applies kCorrupt/kDelay itself.
  std::optional<FiredFault> EvaluateFault(HostContext& host, FaultSite site,
                                          int stream_id,
                                          const std::string& label);
  void MarkDead(const std::string& description);
  void ScrambleBytes(void* data, std::int64_t bytes);

  /// Unmaps the host arena; `bytes` is its length.
  struct ArenaUnmap {
    std::size_t bytes = 0;
    void operator()(std::byte* arena) const;
  };

  DeviceProperties props_;
  int id_ = 0;
  DeviceMetrics metrics_;
  /// The device memory's host backing: an anonymous mapping, so every byte
  /// reads zero and a page is backed only once a copy or kernel writes it.
  std::unique_ptr<std::byte[], ArenaUnmap> arena_;
  FreeListAllocator allocator_;
  Resource compute_{"compute"};
  Resource h2d_{"h2d"};
  Resource d2h_{"d2h"};
  std::list<Stream> streams_;
  int next_stream_id_ = 0;
  Stream* sync_stream_ = nullptr;  // internal stream for synchronous copies
  Trace trace_;
  FaultInjector* injector_ = nullptr;
  Status fault_status_;  // transient sticky error (clears on ResetTimeline)
  Status dead_status_;   // device lost (clears only on Revive)

  bool hazard_checking_ = true;
  struct HazardRecord {
    Interval interval;
    std::vector<Region> regions;
    std::string label;
  };
  std::vector<HazardRecord> hazard_history_;
  std::vector<std::string> hazard_violations_;
};

}  // namespace oocgemm::vgpu
