// Workloads `serve-mixed` and `fleet-shared-b`: one long-lived serving
// target driven in two phases by one sender (the calling thread) and one
// collector thread.
//
//  * Open loop: Poisson sends at a fixed wall rate (about 25% of the
//    saturation throughput on a 4-core host).  Latency runs from each job's
//    scheduled send time until the collector sees its future resolve
//    (within 50 us), so a stall is charged to every job it delays;
//    the sender's own lateness is reported alongside.
//  * Saturation: a closed loop of kWindow outstanding jobs, submitted back
//    to back, then Drain.  Throughput comes from here.
//
// Each phase sends a fixed number of jobs, sized from --seconds at the
// rates below, so every run of a seed does the same work.  Wall rates and
// percentiles are medians over windows of the phase (MedianOfWindows).
//
// serve-mixed: independent squarings of small/medium/large inputs, so the
// cost sits in admission, queueing, dispatch, routing and per-run device
// state rather than in the kernels.  fleet-shared-b: ER A operands against
// four shared R-MAT B operands on a 3-shard fleet, so batching, the panel
// cache, ring placement, replication and the estimator do the work.
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <thread>

#include "common/rng.hpp"
#include "fleet/router.hpp"
#include "kernels/reference_spgemm.hpp"
#include "serve/server.hpp"
#include "sparse/analysis.hpp"
#include "sparse/generators.hpp"
#include "suite.hpp"

namespace suite {

using namespace oocgemm;

namespace {

/// Distinct inputs per workload; jobs cycle through them in seeded order.
constexpr int kPoolSize = 512;
/// Outstanding jobs during saturation.
constexpr std::size_t kWindow = 64;
/// Longest the collector waits on the oldest in-flight job before it
/// rescans the others.
constexpr auto kPollPeriod = std::chrono::microseconds(50);

/// Rates measured on a 4-core host with a pool of 4 (see README.md).
struct WorkloadSpec {
  bool fleet;
  /// Open-loop send rate in wall jobs/s: about 25% of saturation, low
  /// enough that a slower host does not push the open loop up the
  /// queueing curve.
  double open_rate;
  /// Spacing of the open loop's virtual arrivals, in jobs per virtual
  /// second (what `oocgemm_cli serve --load` sets): about 25% of the
  /// virtual saturation throughput.
  double virtual_rate;
  /// Saturation throughput in wall jobs/s; sizes the saturation phase.
  double saturation_rate;
};

struct PoolJob {
  std::shared_ptr<const sparse::Csr> a;
  std::shared_ptr<const sparse::Csr> b;
  serve::JobOptions options;
};

vgpu::DeviceProperties OneMibDevice() {
  vgpu::DeviceProperties props = vgpu::ScaledV100Properties(10);
  props.memory_bytes = 1 << 20;
  return props;
}

std::shared_ptr<const sparse::Csr> Rmat(int scale, std::uint64_t seed) {
  sparse::RmatParams p;
  p.scale = scale;
  p.edge_factor = 8.0;
  p.seed = seed;
  return std::make_shared<const sparse::Csr>(sparse::GenerateRmat(p));
}

std::shared_ptr<const sparse::Csr> ErdosRenyi(sparse::index_t n,
                                              std::uint64_t seed) {
  sparse::ErdosRenyiParams p;
  p.rows = p.cols = n;
  p.avg_degree = 4.0;
  p.seed = seed;
  return std::make_shared<const sparse::Csr>(sparse::GenerateErdosRenyi(p));
}

/// The `oocgemm_cli serve` mix: 5/8 ER-64, 2/8 R-MAT scale 7, 1/8 R-MAT
/// scale 9, squared, priorities 0-3, executor chosen by the server.
std::vector<PoolJob> MixedPool(SplitMix64& rng) {
  std::vector<PoolJob> pool;
  for (int i = 0; i < kPoolSize; ++i) {
    PoolJob job;
    const int kind = i % 8;
    job.a = kind < 5   ? ErdosRenyi(64, rng.Next())
            : kind < 7 ? Rmat(7, rng.Next())
                       : Rmat(9, rng.Next());
    job.b = job.a;
    job.options.priority = static_cast<int>(rng.Next() % 4);
    pool.push_back(std::move(job));
  }
  return pool;
}

/// The `oocgemm_cli serve --shards` mix, scaled up: ER A operands against
/// four shared R-MAT B operands, explicit out-of-core device jobs, 4
/// tenants.  At scale 10 (the CLI uses 8) every product runs as two chunks
/// on the 1 MiB device, so real SpGEMM work outweighs per-job fixed costs,
/// which swing most with host contention (the latency spread across runs
/// fell by ~40%).  The B operands are the same for every seed: they are
/// the fleet's resident operands, and their ring placement (a hash of their
/// content) would otherwise decide the shard balance, and the run's
/// throughput, by seed.
std::vector<PoolJob> SharedBPool(SplitMix64& rng) {
  std::vector<std::shared_ptr<const sparse::Csr>> bs;
  for (std::uint64_t i = 0; i < 4; ++i) bs.push_back(Rmat(10, 0xb0 + i));
  std::vector<PoolJob> pool;
  for (int i = 0; i < kPoolSize; ++i) {
    PoolJob job;
    job.b = bs[static_cast<std::size_t>(i % 4)];
    job.a = ErdosRenyi(job.b->rows(), rng.Next());
    job.options.mode = core::ExecutionMode::kGpuOutOfCore;
    job.options.priority = static_cast<int>(rng.Next() % 4);
    job.options.tenant = "tenant-" + std::to_string((i / 4) % 4);
    pool.push_back(std::move(job));
  }
  return pool;
}

/// Cumulative counters of the target, read off its report.
struct Counters {
  double completed = 0, retries = 0, shortfalls = 0;
  double via_cpu = 0, via_gpu = 0, via_hybrid = 0, via_multi = 0;
  double batches = 0, batched_jobs = 0, uploads = 0;
  double routed = 0, affinity = 0, replica = 0, probe_skips = 0;
  double resubmissions = 0;
  std::vector<double> shard_completed;
  double lane_busy = 0;
  int devices = 0;
  /// Latest virtual finish over every lane (all arrivals are >= 0 and the
  /// warm-up's are 0, so the report's makespan is the frontier).
  double frontier = 0;
};

void AddServer(const serve::ServerReport& r, Counters& c) {
  c.completed += static_cast<double>(r.completed);
  c.retries += static_cast<double>(r.retries);
  c.shortfalls += static_cast<double>(r.reserve_shortfalls);
  c.via_cpu += static_cast<double>(r.via_cpu);
  c.via_gpu += static_cast<double>(r.via_gpu);
  c.via_hybrid += static_cast<double>(r.via_hybrid);
  c.via_multi += static_cast<double>(r.via_multi_device);
  c.batches += static_cast<double>(r.batches);
  c.batched_jobs += static_cast<double>(r.batched_jobs);
  c.uploads += static_cast<double>(r.b_panel_uploads);
  c.shard_completed.push_back(static_cast<double>(r.completed));
  for (const serve::DeviceServeReport& d : r.devices) {
    c.lane_busy += d.busy_seconds;
    ++c.devices;
  }
  c.frontier = std::max(c.frontier, r.virtual_makespan_seconds);
}

/// Inputs and long-lived objects; everything here counts as set-up.
/// Members are destroyed in reverse order: the server or router first,
/// then the devices and pool it runs on.
struct Setup {
  std::vector<PoolJob> jobs;
  std::unique_ptr<ThreadPool> pool;
  std::vector<std::unique_ptr<vgpu::Device>> devices;
  std::unique_ptr<serve::SpgemmServer> server;
  std::unique_ptr<fleet::FleetRouter> router;

  std::future<serve::JobResult> Submit(serve::SpgemmJob job) {
    return router ? router->Submit(std::move(job)) : server->Submit(std::move(job));
  }
  void Drain() { router ? router->Drain() : server->Drain(); }
  Counters Read() const {
    Counters c;
    if (!router) {
      AddServer(server->Report(), c);
      return c;
    }
    const fleet::FleetReport r = router->Report();
    for (const serve::ServerReport& shard : r.shard_reports) AddServer(shard, c);
    c.routed = static_cast<double>(r.routing.routed_jobs);
    c.affinity = static_cast<double>(r.routing.affinity_routed);
    c.replica = static_cast<double>(r.routing.replica_routed);
    c.probe_skips = static_cast<double>(r.routing.probe_skips);
    c.resubmissions = static_cast<double>(r.routing.failover_resubmissions);
    return c;
  }
};

std::unique_ptr<Setup> BuildSetup(const WorkloadSpec& spec, std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  SplitMix64 rng(seed);
  s->jobs = spec.fleet ? SharedBPool(rng) : MixedPool(rng);
  s->pool = std::make_unique<ThreadPool>(4);
  const int num_devices = spec.fleet ? 3 : 2;
  for (int i = 0; i < num_devices; ++i) {
    s->devices.push_back(std::make_unique<vgpu::Device>(OneMibDevice()));
  }
  if (spec.fleet) {
    fleet::FleetConfig config;
    config.shard.scheduler.num_workers = 2;
    config.shard.scheduler.cpu_lanes = 1;
    config.shard.scheduler.max_batch_jobs = 8;
    config.shard.max_queue = 4096;
    config.shard.admission_mode = serve::AdmissionMode::kEstimate;
    config.policy = fleet::RoutingPolicy::kAffinity;
    config.replication.replication = 2;
    std::vector<std::vector<vgpu::Device*>> shards;
    for (auto& d : s->devices) shards.push_back({d.get()});
    s->router = std::make_unique<fleet::FleetRouter>(std::move(shards), *s->pool,
                                                     config);
  } else {
    serve::ServerConfig config;
    config.scheduler.num_workers = 4;
    config.scheduler.cpu_lanes = 3;
    config.scheduler.max_devices_per_job = 2;
    config.max_queue = 4096;
    config.admission_mode = serve::AdmissionMode::kExact;
    std::vector<vgpu::Device*> devices;
    for (auto& d : s->devices) devices.push_back(d.get());
    s->server = std::make_unique<serve::SpgemmServer>(devices, *s->pool, config);
  }
  return s;
}

struct Reference {
  sparse::Csr c;
  double flops = 0.0;
};

/// One job as the load generator saw it.
struct JobRecord {
  int entry = 0;
  std::int64_t seq = 0;
  std::uint64_t span = 0;
  Clock::time_point due, sent, submitted, done;
  bool completed = false;
  bool verified = false;
  bool executed = false;
  int chunks = 0;
  double exec_wall_s = 0.0;         // JobMetrics::wall_seconds
  double virtual_latency_s = 0.0;   // JobMetrics::latency_seconds
  double virtual_finish_s = 0.0;    // JobMetrics::virtual_finish
};

/// Watches in-flight futures, time-stamps each resolution, verifies the
/// product against its reference and drops it.  Runs on its own thread.
class Collector {
 public:
  Collector(const std::vector<Reference>& refs, Tracer& tracer,
            std::uint64_t phase, const char* job_span)
      : refs_(refs), tracer_(tracer), phase_(phase), job_span_(job_span),
        thread_([this] { Loop(); }) {}

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;
  ~Collector() { Finish(); }

  void Add(JobRecord record, std::future<serve::JobResult> future) {
    std::lock_guard<std::mutex> lock(mutex_);
    incoming_.push_back({std::move(record), std::move(future)});
    ++outstanding_;
    cv_.notify_all();
  }

  /// Blocks until fewer than `limit` jobs are outstanding.
  void WaitBelow(std::size_t limit) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return outstanding_ < limit; });
  }

  std::size_t outstanding() {
    std::lock_guard<std::mutex> lock(mutex_);
    return outstanding_;
  }

  /// Waits for every added job to resolve and joins; idempotent.
  std::vector<JobRecord> Finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closing_ = true;
      cv_.notify_all();
    }
    if (thread_.joinable()) thread_.join();
    return std::move(finished_);
  }

 private:
  struct InFlight {
    JobRecord record;
    std::future<serve::JobResult> future;
  };

  void Loop() {
    std::vector<InFlight> live;  // in send order
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (live.empty()) {
          cv_.wait(lock, [&] { return closing_ || !incoming_.empty(); });
        }
        for (auto& f : incoming_) live.push_back(std::move(f));
        incoming_.clear();
        if (closing_ && live.empty()) return;
      }
      // Block on the oldest job: its resolution wakes this thread at once
      // (a futex wake, not a timer), and jobs mostly resolve in send order.
      // Others are seen at the next scan, at most kPollPeriod later.
      live.front().future.wait_for(kPollPeriod);
      std::vector<InFlight> ready, pending;
      for (InFlight& f : live) {
        if (f.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          f.record.done = Clock::now();
          ready.push_back(std::move(f));
        } else {
          pending.push_back(std::move(f));
        }
      }
      live = std::move(pending);
      for (InFlight& f : ready) Resolve(f);
      if (!ready.empty()) {
        std::lock_guard<std::mutex> lock(mutex_);
        outstanding_ -= ready.size();
        cv_.notify_all();
      }
    }
  }

  void Resolve(InFlight& f) {
    serve::JobResult r;
    try {
      r = f.future.get();
    } catch (const std::exception& e) {  // e.g. a broken promise
      r.status = Status::Internal(e.what());
    }
    JobRecord& rec = f.record;
    rec.completed = r.ok();
    rec.verified =
        r.ok() && r.c.ApproxEquals(refs_[static_cast<std::size_t>(rec.entry)].c);
    rec.executed = r.metrics.executed;
    rec.chunks = r.metrics.stats.num_chunks;
    rec.exec_wall_s = r.metrics.wall_seconds;
    rec.virtual_latency_s = r.metrics.latency_seconds;
    rec.virtual_finish_s = r.metrics.virtual_finish;
    tracer_.Record(rec.span, job_span_, phase_, rec.seq, rec.due, rec.done);
    finished_.push_back(std::move(rec));
  }

  const std::vector<Reference>& refs_;
  Tracer& tracer_;
  const std::uint64_t phase_;
  const char* const job_span_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<InFlight> incoming_;
  std::size_t outstanding_ = 0;
  bool closing_ = false;
  std::vector<JobRecord> finished_;  // collector thread only until joined
  std::thread thread_;               // last: starts after the members above
};

struct Phase {
  std::vector<JobRecord> jobs;  // in resolution order
  Clock::time_point start, send_end;
  double v_base = 0.0;
  double backlog_end = 0.0;
};

/// Seeded order over the pool: each cycle of kPoolSize jobs is a fresh
/// shuffle, so every cycle holds the pool's exact mix.
class JobOrder {
 public:
  explicit JobOrder(std::uint64_t seed) : rng_(seed, /*stream=*/0x0bde5) {}
  int Next() {
    if (pos_ == order_.size()) {
      order_.resize(kPoolSize);
      for (int i = 0; i < kPoolSize; ++i) order_[static_cast<std::size_t>(i)] = i;
      for (std::size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.Below(static_cast<std::uint32_t>(i))]);
      }
      pos_ = 0;
    }
    return order_[pos_++];
  }
  Pcg32& rng() { return rng_; }

 private:
  Pcg32 rng_;
  std::vector<int> order_;
  std::size_t pos_ = 0;
};

/// Sends `jobs` jobs: on a Poisson schedule at spec.open_rate (`open`), or
/// back to back with kWindow outstanding (saturation); then drains.
Phase RunPhase(Setup& s, const WorkloadSpec& spec,
               const std::vector<Reference>& refs, bool open, std::int64_t jobs,
               JobOrder& order, Tracer& tracer) {
  Phase phase;
  phase.v_base = s.Read().frontier;
  const std::uint64_t phase_span = tracer.NewId();
  const char* job_span = spec.fleet ? "fleet.job" : "serve.job";
  const char* submit_span = spec.fleet ? "fleet.Submit" : "serve.Submit";
  Collector collector(refs, tracer, phase_span, job_span);
  phase.start = Clock::now();
  double t = 0.0;  // open loop: offset of the next scheduled send
  for (std::int64_t k = 0; k < jobs; ++k) {
    JobRecord rec;
    if (open) {
      t += -std::log(1.0 - order.rng().NextDouble()) / spec.open_rate;
      rec.due = phase.start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(t));
      std::this_thread::sleep_until(rec.due);
    } else {
      collector.WaitBelow(kWindow);
      rec.due = Clock::now();
    }
    rec.entry = order.Next();
    rec.seq = k;
    rec.span = tracer.NewId();
    const PoolJob& pooled = s.jobs[static_cast<std::size_t>(rec.entry)];
    serve::SpgemmJob job{pooled.a, pooled.b, pooled.options};
    job.options.virtual_arrival =
        open ? phase.v_base + static_cast<double>(k) / spec.virtual_rate
             : phase.v_base;
    rec.sent = Clock::now();
    std::future<serve::JobResult> future = s.Submit(std::move(job));
    rec.submitted = Clock::now();
    tracer.Add(submit_span, rec.span, k, rec.sent, rec.submitted);
    collector.Add(std::move(rec), std::move(future));
  }
  phase.send_end = Clock::now();
  phase.backlog_end = static_cast<double>(collector.outstanding());
  s.Drain();
  tracer.Add(spec.fleet ? "fleet.Drain" : "serve.Drain", phase_span, -1,
             phase.send_end, Clock::now());
  phase.jobs = collector.Finish();
  tracer.Record(phase_span, open ? "phase.open_loop" : "phase.saturation", 0,
                -1, phase.start, Clock::now());
  return phase;
}

void CountOutcomes(const Phase& phase, RunResult& result) {
  for (const JobRecord& j : phase.jobs) {
    ++result.attempted;
    if (!j.completed) ++result.failed;
    if (j.completed && !j.verified) {
      ++result.mismatches;
      ++result.failed;
    }
  }
}

/// Median over `windows` consecutive equal-count slices [lo, hi) of
/// [0, n) of stat(lo, hi): one burst of host interference moves one window,
/// not the reported value.
template <typename Stat>
double MedianOfWindows(std::size_t n, std::size_t windows, Stat stat) {
  std::vector<double> values;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t lo = n * w / windows, hi = n * (w + 1) / windows;
    if (hi > lo) values.push_back(stat(lo, hi));
  }
  return Median(values);
}

/// Metrics of one open-loop + saturation pair.
struct Measured {
  Metrics m;
  double wall_gflops = 0.0;
};

Measured Measure(Setup& s, const WorkloadSpec& spec,
                 const std::vector<Reference>& refs, double seconds,
                 JobOrder& order, Tracer& tracer, RunResult& result) {
  const auto count = [&](double rate) {
    return std::max<std::int64_t>(kWindow, std::llround(rate * seconds / 2));
  };
  Measured out;
  Metrics& m = out.m;
  const Counters c0 = s.Read();
  const obs::RegistrySnapshot obs0 = obs::MetricsRegistry::Default().Snapshot();
  Phase open = RunPhase(s, spec, refs, true, count(spec.open_rate), order, tracer);
  const Phase sat =
      RunPhase(s, spec, refs, false, count(spec.saturation_rate), order, tracer);
  const obs::RegistrySnapshot obs1 = obs::MetricsRegistry::Default().Snapshot();
  const Counters c1 = s.Read();
  CountOutcomes(open, result);
  CountOutcomes(sat, result);

  // Open loop, in send order: latency from the scheduled send; a job that
  // did not complete counts as missing every latency limit.
  std::sort(open.jobs.begin(), open.jobs.end(),
            [](const JobRecord& x, const JobRecord& y) { return x.seq < y.seq; });
  constexpr double kMissed = 1e12;
  std::vector<double> latency, lateness, exec, wait, vlatency;
  for (const JobRecord& j : open.jobs) {
    const double ms = j.verified ? 1e3 * Seconds(j.due, j.done) : kMissed;
    latency.push_back(ms);
    lateness.push_back(1e3 * Seconds(j.due, j.sent));
    if (!j.completed) continue;
    exec.push_back(1e3 * j.exec_wall_s);
    wait.push_back(ms - 1e3 * j.exec_wall_s);
    vlatency.push_back(1e3 * j.virtual_latency_s);
  }
  // At most 8 windows, each keeping at least ten samples beyond q.
  auto windowed = [&](const std::vector<double>& v, double q) {
    const auto windows = std::clamp<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(v.size()) * (1.0 - q) / 10.0), 1, 8);
    return MedianOfWindows(v.size(), windows, [&](std::size_t lo, std::size_t hi) {
      return Quantile({v.begin() + static_cast<std::ptrdiff_t>(lo),
                       v.begin() + static_cast<std::ptrdiff_t>(hi)}, q);
    });
  };
  // p95 is the end-to-end tail: across runs on a shared host the fleet's
  // p99 spread twice as wide as its p95 (0.15-0.33 vs 0.08 IQR/median), so
  // p99 stays a per-layer value.
  m.Set("wall_latency_p50_ms", windowed(latency, 0.50), "ms");
  m.Set("wall_latency_p95_ms", windowed(latency, 0.95), "ms");
  m.Set("loadgen.latency_p99_ms", windowed(latency, 0.99), "ms");
  m.Set("serve.exec_ms_p50", Quantile(exec, 0.50), "ms");
  m.Set("serve.exec_ms_p99", Quantile(exec, 0.99), "ms");
  m.Set("serve.wait_ms_p99", Quantile(wait, 0.99), "ms");
  m.Set("serve.virtual_latency_p50_ms", Quantile(vlatency, 0.50), "ms_virtual");
  m.Set("serve.virtual_latency_p99_ms", Quantile(vlatency, 0.99), "ms_virtual");
  m.Set("loadgen.lateness_p99_ms", Quantile(lateness, 0.99), "ms");
  m.Set("loadgen.backlog_end", open.backlog_end, "jobs");

  // Saturation, in resolution order: wall rates per window of completions,
  // and the virtual rate over the phase's virtual span.
  std::vector<double> done_s, done_flops;
  double v_end = sat.v_base;
  for (const JobRecord& j : sat.jobs) {
    if (!j.verified) continue;
    done_s.push_back(Seconds(sat.start, j.done));
    done_flops.push_back(refs[static_cast<std::size_t>(j.entry)].flops);
    v_end = std::max(v_end, j.virtual_finish_s);
  }
  const double completed = static_cast<double>(done_s.size());
  auto span = [&](std::size_t lo, std::size_t hi) {
    return done_s[hi - 1] - (lo == 0 ? 0.0 : done_s[lo - 1]);
  };
  const double jobs_per_s = MedianOfWindows(done_s.size(), 8, [&](auto lo, auto hi) {
    return static_cast<double>(hi - lo) / span(lo, hi);
  });
  out.wall_gflops = MedianOfWindows(done_s.size(), 8, [&](auto lo, auto hi) {
    double f = 0.0;
    for (std::size_t i = lo; i < hi; ++i) f += done_flops[i];
    return f / span(lo, hi) / 1e9;
  });
  double flops = 0.0;
  for (double f : done_flops) flops += f;
  const double v_span = v_end - sat.v_base;
  m.Set("wall_gflops", out.wall_gflops, "GFLOP/s");
  m.Set("wall_jobs_per_s", jobs_per_s, "jobs/s");
  m.Set("virtual_gflops", flops / v_span / 1e9, "GFLOP/s_virtual");
  m.Set("virtual_jobs_per_s", completed / v_span, "jobs/s_virtual");
  // Last-quarter over first-quarter completion rate.
  const std::size_t q = done_s.size() / 4;
  m.Set("serve.wall_drift", q == 0 ? 0.0
                                   : Ratio(span(0, q), span(done_s.size() - q,
                                                            done_s.size())),
        "ratio");

  // Both phases: submit cost, chunking and the layers' counters.
  std::vector<double> submit_us;
  double chunks = 0.0, executed = 0.0;
  for (const Phase* p : {static_cast<const Phase*>(&open), &sat}) {
    for (const JobRecord& j : p->jobs) {
      submit_us.push_back(1e6 * Seconds(j.sent, j.submitted));
      if (j.completed && j.executed) {
        chunks += j.chunks;
        executed += 1.0;
      }
    }
  }
  const std::string layer = spec.fleet ? "fleet" : "serve";
  m.Set(layer + ".submit_us_p50", Quantile(submit_us, 0.50), "us");
  m.Set(layer + ".submit_us_p99", Quantile(submit_us, 0.99), "us");
  m.Set("partition.chunks", Ratio(chunks, executed), "1/job");

  const double jobs = c1.completed - c0.completed;
  m.Set("serve.retries", Ratio(c1.retries - c0.retries, jobs), "1/job");
  m.Set("serve.reserve_shortfalls", Ratio(c1.shortfalls - c0.shortfalls, jobs),
        "1/job");
  m.Set("serve.route_share.cpu", Ratio(c1.via_cpu - c0.via_cpu, jobs), "fraction");
  m.Set("serve.route_share.gpu", Ratio(c1.via_gpu - c0.via_gpu, jobs), "fraction");
  m.Set("serve.route_share.hybrid", Ratio(c1.via_hybrid - c0.via_hybrid, jobs),
        "fraction");
  m.Set("serve.route_share.multi_device", Ratio(c1.via_multi - c0.via_multi, jobs),
        "fraction");
  m.Set("serve.lane_utilization",
        Ratio(c1.lane_busy - c0.lane_busy, c1.devices * (c1.frontier - open.v_base)),
        "fraction");
  m.Set("serve.batch_size_avg",
        Ratio(c1.batched_jobs - c0.batched_jobs, c1.batches - c0.batches), "jobs");
  m.Set("serve.b_panel_uploads_per_job", Ratio(c1.uploads - c0.uploads, jobs),
        "1/job");
  SetObsDeltaMetrics(obs0, obs1, jobs, m);
  if (spec.fleet) {
    const double routed = c1.routed - c0.routed;
    double max_shard = 0.0;
    for (std::size_t i = 0; i < c1.shard_completed.size(); ++i) {
      max_shard = std::max(max_shard, c1.shard_completed[i] - c0.shard_completed[i]);
    }
    m.Set("fleet.shard_imbalance",
          Ratio(max_shard, jobs / static_cast<double>(c1.shard_completed.size())),
          "ratio");
    m.Set("fleet.affinity_share", Ratio(c1.affinity - c0.affinity, routed), "fraction");
    m.Set("fleet.replica_share", Ratio(c1.replica - c0.replica, routed), "fraction");
    m.Set("fleet.probe_skips", Ratio(c1.probe_skips - c0.probe_skips, routed), "1/job");
    m.Set("fleet.failover_resubmissions",
          Ratio(c1.resubmissions - c0.resubmissions, routed), "1/job");
  }
  return out;
}

}  // namespace

int RunServeWorkload(const Options& options, Clock::time_point process_start,
                     RunResult& result) {
  const WorkloadSpec spec = options.workload == "fleet-shared-b"
                                ? WorkloadSpec{true, 320.0, 3300.0, 1250.0}
                                : WorkloadSpec{false, 600.0, 11000.0, 2500.0};
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    setup.reset();  // one server at a time
    const auto t0 = Clock::now();
    setup = BuildSetup(spec, options.seed);
    setup_s.push_back(Seconds(t0, Clock::now()));
  }
  Setup& s = *setup;

  std::vector<Reference> refs;
  for (const PoolJob& job : s.jobs) {
    refs.push_back({kernels::ReferenceSpgemm(*job.a, *job.b),
                    static_cast<double>(sparse::TotalFlops(*job.a, *job.b))});
  }

  // 1 ns timer slack for the load generator's own sleeps (the sender's
  // schedule, the collector's waits; the collector threads inherit it)
  // instead of Linux's default 50 us, which would blur ~1 ms latencies.
  // The library's threads were all started during set-up and keep the
  // default.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Tracer tracer(process_start);
  JobOrder order(options.seed);
  // Warm-up: one pass over the pool, untimed.
  CountOutcomes(RunPhase(s, spec, refs, false, kPoolSize, order, tracer), result);

  if (!options.traced()) {
    result.metrics.Merge(Measure(s, spec, refs, options.seconds, order, tracer,
                                 result).m);
  } else {
    // Traced half between two untraced quarters, so the slowdown over the
    // run cancels out of trace.overhead.
    const double head =
        Measure(s, spec, refs, options.seconds / 4, order, tracer, result)
            .wall_gflops;
    tracer.set_enabled(true);
    const Measured traced =
        Measure(s, spec, refs, options.seconds / 2, order, tracer, result);
    tracer.set_enabled(false);
    const double untraced =
        (head + Measure(s, spec, refs, options.seconds / 4, order, tracer, result)
                    .wall_gflops) / 2;
    result.metrics.Merge(traced.m);
    result.metrics.Set("trace.overhead", 1.0 - traced.wall_gflops / untraced,
                       "fraction");
    std::vector<ReplayInput> inputs;
    for (int i = 0; i < 256; ++i) {
      const PoolJob& job = s.jobs[static_cast<std::size_t>(i)];
      inputs.push_back({job.a.get(), job.b.get(), &refs[static_cast<std::size_t>(i)].c});
    }
    tracer.set_enabled(true);
    RunLayerReplay(inputs, s.devices.front()->capacity(), *s.pool, tracer, result);
    if (!tracer.WriteJson(options.trace_path, options, untraced,
                          traced.wall_gflops)) {
      std::fprintf(stderr, "cannot write trace %s\n", options.trace_path.c_str());
      return 1;
    }
  }
  result.metrics.Set("setup_s", Median(setup_s), "s");
  return 0;
}

}  // namespace suite
