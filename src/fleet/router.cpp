#include "fleet/router.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace oocgemm::fleet {

/// Seed of the kRandom policy's generator (deterministic baseline).
constexpr std::uint64_t kRandomSeed = 0x5eedull;
/// A shard whose queue depth is at or past this fraction of capacity is
/// skipped at routing time (the job goes to the next ring successor).
constexpr double kQueuePressureLimit = 0.95;

const char* RoutingPolicyName(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kAffinity: return "affinity";
    case RoutingPolicy::kRandom: return "random";
  }
  return "unknown";
}

FleetRouter::FleetRouter(std::vector<std::vector<vgpu::Device*>> shard_devices,
                         ThreadPool& pool, FleetConfig config)
    : config_(std::move(config)),
      ring_(static_cast<int>(shard_devices.size()),
            config_.vnodes_per_shard),
      tracker_(config_.replication),
      rng_(kRandomSeed) {
  shards_.reserve(shard_devices.size());
  for (std::size_t i = 0; i < shard_devices.size(); ++i) {
    serve::ServerConfig shard_config = config_.shard;
    if (shard_config.instance_label.empty()) {
      shard_config.instance_label = "shard" + std::to_string(i);
    } else {
      shard_config.instance_label += std::to_string(i);
    }
    shards_.push_back(std::make_unique<serve::SpgemmServer>(
        std::move(shard_devices[i]), pool, std::move(shard_config)));
  }

  auto& reg = obs::MetricsRegistry::Default();
  metrics_.routed = &reg.GetCounter("oocgemm_fleet_routed_jobs", {},
                                    "Jobs the fleet router placed on a shard");
  metrics_.affinity = &reg.GetCounter(
      "oocgemm_fleet_affinity_routed", {},
      "Jobs placed on their B operand's ring owner");
  metrics_.replica = &reg.GetCounter(
      "oocgemm_fleet_replica_routed", {},
      "Jobs spread onto a hot operand's non-owner replica");
  metrics_.random = &reg.GetCounter(
      "oocgemm_fleet_random_routed", {},
      "Jobs placed by the random baseline policy");
  metrics_.probe_skips = &reg.GetCounter(
      "oocgemm_fleet_probe_skips", {},
      "First-choice shards skipped at submit (dead pool / full queue)");
  metrics_.resubmissions = &reg.GetCounter(
      "oocgemm_fleet_failover_resubmissions", {},
      "Re-submissions to a ring successor after a shard failure");
  metrics_.rerouted_completed = &reg.GetCounter(
      "oocgemm_fleet_rerouted_completed", {},
      "Jobs that failed on their first shard but completed on a successor");
  metrics_.exhausted = &reg.GetCounter(
      "oocgemm_fleet_exhausted_jobs", {},
      "Jobs that failed on every distinct shard");
  metrics_.shards = &reg.GetGauge("oocgemm_fleet_shards", {},
                                  "Shards behind the fleet router");
  metrics_.shards->Set(static_cast<std::int64_t>(shards_.size()));
}

FleetRouter::~FleetRouter() { Shutdown(); }

int FleetRouter::ChooseShardLocked(std::uint64_t key) {
  const int n = shard_count();
  if (config_.policy == RoutingPolicy::kRandom) {
    ++routing_.random_routed;
    metrics_.random->Add(1);
    return static_cast<int>(rng_() % static_cast<std::uint64_t>(n));
  }
  const int fanout = tracker_.RecordAndFanout(key);
  const std::vector<int> replicas = ring_.Successors(key, fanout);
  int pick = replicas.empty() ? 0 : replicas[0];
  if (replicas.size() > 1) {
    const int cursor = tracker_.NextReplicaCursor(key);
    pick = replicas[static_cast<std::size_t>(cursor) % replicas.size()];
  }
  if (!replicas.empty() && pick != replicas[0]) {
    ++routing_.replica_routed;
    metrics_.replica->Add(1);
  } else {
    ++routing_.affinity_routed;
    metrics_.affinity->Add(1);
  }
  return pick;
}

int FleetRouter::NextUntriedShard(std::uint64_t key,
                                  const std::vector<int>& tried) const {
  const std::vector<int> order = ring_.Successors(key, shard_count());
  int first_untried = -1;
  for (int s : order) {
    if (std::find(tried.begin(), tried.end(), s) != tried.end()) continue;
    if (first_untried < 0) first_untried = s;
    if (shards_[static_cast<std::size_t>(s)]->Probe().Routable(
            kQueuePressureLimit)) {
      return s;
    }
  }
  // No routable candidate: hand the job to the first untried shard anyway —
  // its immediate rejection terminates the hop chain deterministically
  // instead of the router inventing an outcome of its own.
  return first_untried;
}

std::future<serve::JobResult> FleetRouter::Submit(serve::SpgemmJob job) {
  {
    std::unique_lock<std::mutex> lock(pending_mutex_);
    if (shut_down_) {
      std::promise<serve::JobResult> p;
      serve::JobResult r;
      r.status = Status::FailedPrecondition("fleet router is shut down");
      r.metrics.outcome = serve::JobOutcome::kRejected;
      p.set_value(std::move(r));
      {
        std::unique_lock<std::mutex> stats_lock(mutex_);
        ++routing_.router_rejects;
      }
      return p.get_future();
    }
    ++pending_;
  }

  const std::uint64_t key = job.b ? OperandPlacementKey(*job.b) : 0;
  int target;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    target = ChooseShardLocked(key);
    ++routing_.routed_jobs;
    metrics_.routed->Add(1);
  }

  // Probe the placement; a dead or saturated first choice is skipped for
  // the next routable ring successor before the job ever queues.
  if (!shards_[static_cast<std::size_t>(target)]->Probe().Routable(
          kQueuePressureLimit)) {
    const int fallback = NextUntriedShard(key, {target});
    if (fallback >= 0) {
      std::unique_lock<std::mutex> lock(mutex_);
      ++routing_.probe_skips;
      metrics_.probe_skips->Add(1);
      target = fallback;
    }
  }

  auto ticket = std::make_shared<Ticket>();
  ticket->job = std::move(job);
  ticket->key = key;
  std::future<serve::JobResult> caller_future = ticket->promise.get_future();
  Place(std::move(ticket), target);
  return caller_future;
}

void FleetRouter::Place(std::shared_ptr<Ticket> ticket, int shard) {
  // Recorded before the submit: a rejection calls back on this thread.
  ticket->tried.push_back(shard);
  serve::SpgemmJob job = ticket->job;
  shards_[static_cast<std::size_t>(shard)]->Submit(
      std::move(job), [this, ticket](serve::JobResult result) {
        if (RetryableOnAnotherShard(result) &&
            static_cast<int>(ticket->tried.size()) < shard_count()) {
          const int next = NextUntriedShard(ticket->key, ticket->tried);
          if (next >= 0) {
            {
              std::unique_lock<std::mutex> lock(mutex_);
              ++routing_.failover_resubmissions;
              metrics_.resubmissions->Add(1);
            }
            Place(ticket, next);
            return;
          }
        }
        Deliver(*ticket, std::move(result));
      });
}

bool FleetRouter::RetryableOnAnotherShard(const serve::JobResult& result) {
  // Completed and timed-out jobs are terminal (the deadline elapsed either
  // way); so are caller errors.  Everything that smells like "this shard
  // could not serve it" — dead devices, full queue, exhausted pool — is
  // worth one hop per remaining shard.
  if (result.metrics.outcome == serve::JobOutcome::kCompleted ||
      result.metrics.outcome == serve::JobOutcome::kTimedOut) {
    return false;
  }
  switch (result.status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kDataLoss:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kResourceExhausted:
    case StatusCode::kOutOfMemory:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

void FleetRouter::Deliver(Ticket& ticket, serve::JobResult result) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    switch (result.metrics.outcome) {
      case serve::JobOutcome::kCompleted:
        ++delivered_completed_;
        if (ticket.tried.size() > 1) {
          ++routing_.rerouted_completed;
          metrics_.rerouted_completed->Add(1);
        }
        break;
      case serve::JobOutcome::kRejected: ++delivered_rejected_; break;
      case serve::JobOutcome::kTimedOut: ++delivered_timed_out_; break;
      case serve::JobOutcome::kFailed: ++delivered_failed_; break;
    }
    if (result.metrics.outcome != serve::JobOutcome::kCompleted &&
        static_cast<int>(ticket.tried.size()) >= shard_count() &&
        ticket.tried.size() > 1) {
      ++routing_.exhausted_jobs;
      metrics_.exhausted->Add(1);
    }
  }
  ticket.promise.set_value(std::move(result));
  {
    std::unique_lock<std::mutex> lock(pending_mutex_);
    if (--pending_ == 0) pending_cv_.notify_all();
  }
}

void FleetRouter::Drain() {
  std::unique_lock<std::mutex> lock(pending_mutex_);
  pending_cv_.wait(lock, [this] { return pending_ == 0; });
}

void FleetRouter::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(pending_mutex_);
    shut_down_ = true;
  }
  Drain();  // no shard holds a ticket once every caller future resolved
  for (auto& shard : shards_) shard->Shutdown();
}

int FleetRouter::PrimaryShardFor(const sparse::Csr& b) const {
  return ring_.Owner(OperandPlacementKey(b));
}

FleetReport FleetRouter::Report() const {
  FleetReport report;
  report.shards = shard_count();
  report.replication = std::max(1, config_.replication.replication);
  report.policy = RoutingPolicyName(config_.policy);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    report.routing = routing_;
    report.routing.hot_promotions = tracker_.promotions();
    report.routing.hot_demotions = tracker_.demotions();
    report.routing.tracked_operands = tracker_.tracked_keys();
    report.delivered_completed = delivered_completed_;
    report.delivered_rejected = delivered_rejected_;
    report.delivered_timed_out = delivered_timed_out_;
    report.delivered_failed = delivered_failed_;
  }
  report.shard_reports.reserve(shards_.size());
  for (const auto& shard : shards_) {
    report.shard_reports.push_back(shard->Report());
  }
  report.totals = FleetReport::Sum(report.shard_reports);
  return report;
}

}  // namespace oocgemm::fleet
