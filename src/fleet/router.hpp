// FleetRouter: N in-process SpgemmServer shards behind one Submit().
//
// Placement is the consistent-hash ring over content-stable B-operand keys
// (fleet/placement.hpp): repeat jobs on the same B land on the same
// shard, so that shard's batch former and PanelCache amortize the B-panel
// uploads — the fleet-level continuation of the operand-reuse lever the
// paper pulls inside one node.  A HotOperandTracker promotes
// skew-dominating operands onto R ring successors and round-robins among
// them, trading R-1 extra copies of the B panels for R-way bandwidth.
//
// Failure handling reuses the shard-level health machinery: a shard whose
// devices all died fails explicit-GPU jobs fast (DevicePool::Acquire
// refuses when no healthy device fits), its probe turns un-routable, and
// the completion callback the router hands each shard re-submits the
// failed job to the next untried ring successor, recording the hop.  The
// router starts no thread of its own: a job resolves on the shard thread
// that finished it.  Every Submit() returns a future that resolves exactly
// once, with the final shard's result.
//
//   fleet::FleetRouter router({{&d0, &d1}, {&d2, &d3}}, pool, config);
//   auto fut = router.Submit({a, b, {.mode = kGpuOutOfCore}});
//   router.Drain();
//   fleet::FleetReport report = router.Report();
#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <vector>

#include "common/thread_pool.hpp"
#include "fleet/fleet_report.hpp"
#include "fleet/placement.hpp"
#include "fleet/replication.hpp"
#include "fleet/ring.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace oocgemm::fleet {

enum class RoutingPolicy {
  kAffinity,  // ring owner (or a hot operand's replica set)
  kRandom,    // uniform random shard — the bench's baseline
};

const char* RoutingPolicyName(RoutingPolicy policy);

struct FleetConfig {
  /// Per-shard server configuration.  The router stamps instance_label
  /// with "shard<i>" so each shard's queue gauge is its own metric point.
  serve::ServerConfig shard;

  RoutingPolicy policy = RoutingPolicy::kAffinity;
  /// Replication factor of the hot-operand tracker.
  ReplicationConfig replication;
};

class FleetRouter {
 public:
  /// One device set per shard; the router owns the servers, not the
  /// devices.  Shard i is built over shard_devices[i].
  FleetRouter(std::vector<std::vector<vgpu::Device*>> shard_devices,
              ThreadPool& pool, FleetConfig config = {});
  ~FleetRouter();

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  /// Thread-safe.  The future resolves exactly once: with the first
  /// shard's result, or — after cross-shard failover — with the result of
  /// the last shard tried.
  std::future<serve::JobResult> Submit(serve::SpgemmJob job);

  /// Blocks until every routed job has resolved its caller future
  /// (including jobs still hopping between shards).
  void Drain();

  /// Stops accepting, drains in-flight jobs, shuts every shard down.
  /// Idempotent; also run by the destructor.
  void Shutdown();

  FleetReport Report() const;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  serve::SpgemmServer& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }
  const serve::SpgemmServer& shard(int i) const {
    return *shards_[static_cast<std::size_t>(i)];
  }
  /// The ring owner of `b` — where an affinity-routed job goes when the
  /// operand is cold and the shard healthy.  Tests pin placement with it.
  int PrimaryShardFor(const sparse::Csr& b) const;
  const ConsistentHashRing& ring() const { return ring_; }
  const FleetConfig& config() const { return config_; }

 private:
  /// One routed job: the caller's promise plus enough state to resubmit.
  /// One shard holds it at a time.
  struct Ticket {
    serve::SpgemmJob job;  // operands are shared_ptrs — resubmission is cheap
    std::uint64_t key = 0;  // B's placement key
    std::promise<serve::JobResult> promise;
    std::vector<int> tried;  // shards this job was placed on, in order
  };

  /// Places the job per policy/tracker and updates routing counters.
  /// Returns the chosen shard.  Caller must hold mutex_.
  int ChooseShardLocked(std::uint64_t key);
  /// First probe-routable untried successor of `key`; -1 when every shard
  /// was tried; falls back to the first untried one when none is routable
  /// (its rejection keeps the hop accounting honest).
  int NextUntriedShard(std::uint64_t key, const std::vector<int>& tried) const;

  /// Submits the ticket to `shard`, whose completion callback either
  /// re-places it on the next untried ring successor or delivers it.
  void Place(std::shared_ptr<Ticket> ticket, int shard);
  /// Terminal delivery: fulfils the caller promise, updates delivered
  /// counters, releases the drain latch.
  void Deliver(Ticket& ticket, serve::JobResult result);
  static bool RetryableOnAnotherShard(const serve::JobResult& result);

  FleetConfig config_;
  std::vector<std::unique_ptr<serve::SpgemmServer>> shards_;
  ConsistentHashRing ring_;

  mutable std::mutex mutex_;  // tracker, rng, routing stats
  HotOperandTracker tracker_;
  std::mt19937_64 rng_;
  FleetRoutingStats routing_;

  // Caller-visible outcome tallies (delivered_* of the report).
  std::int64_t delivered_completed_ = 0;
  std::int64_t delivered_rejected_ = 0;
  std::int64_t delivered_timed_out_ = 0;
  std::int64_t delivered_failed_ = 0;

  mutable std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  std::int64_t pending_ = 0;
  bool shut_down_ = false;

  /// Default-registry mirrors of the routing counters, so the fleet is
  /// scrapable live alongside the per-shard serve metrics.
  struct Metrics {
    obs::Counter* routed = nullptr;
    obs::Counter* affinity = nullptr;
    obs::Counter* replica = nullptr;
    obs::Counter* random = nullptr;
    obs::Counter* probe_skips = nullptr;
    obs::Counter* resubmissions = nullptr;
    obs::Counter* rerouted_completed = nullptr;
    obs::Counter* exhausted = nullptr;
    obs::Gauge* shards = nullptr;
  };
  Metrics metrics_;
};

}  // namespace oocgemm::fleet
