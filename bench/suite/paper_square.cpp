// Workload `paper-square`: C = A*A for the nine Table II stand-ins on the
// 16 MiB scaled V100, through six executor entry points, by one caller in a
// closed loop.
//
// This is the paper's regime: every output exceeds device memory, so each
// product runs as several chunks and the partition, kernels, vgpu and core
// layers do all the work (serve and fleet do none).  The seed relabels each
// stand-in by a seeded cyclic shift of its ids (P A P^T): the structure
// class stays, the panel boundaries move.  Virtual results are exact for a
// given seed, so any virtual drift shows.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "common/rng.hpp"
#include "core/chunk_sink.hpp"
#include "core/executors.hpp"
#include "core/multi_gpu.hpp"
#include "kernels/reference_spgemm.hpp"
#include "sparse/analysis.hpp"
#include "sparse/datasets.hpp"
#include "sparse/reorder.hpp"
#include "suite.hpp"

namespace suite {

using namespace oocgemm;

namespace {

enum Entry { kSync, kAsync, kHybrid, kCpu, kStreamed, kMulti2, kNumEntries };

/// Wall seconds of one round of the 54 calls on a 4-core host with a pool
/// of 4; sizes the measured phase from --seconds.
constexpr double kNominalRoundSeconds = 5.0;

const char* const kEntryNames[kNumEntries] = {"sync",     "async",
                                              "hybrid",   "cpu",
                                              "streamed", "multigpu2"};
const char* const kEntrySpans[kNumEntries] = {
    "core.SyncOutOfCore",          "core.AsyncOutOfCore",
    "core.Hybrid",                 "core.CpuMulticore",
    "core.AsyncOutOfCoreStreamed", "core.MultiGpuHybrid"};

/// Inputs and long-lived objects; everything here counts as set-up.
struct Setup {
  std::vector<sparse::Csr> matrices;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<vgpu::Device> dev0;
  std::unique_ptr<vgpu::Device> dev1;
};

std::unique_ptr<Setup> BuildSetup(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  SplitMix64 rng(seed);
  for (const sparse::DatasetSpec& spec : sparse::PaperMatrices(0)) {
    sparse::Csr a = spec.build();
    const sparse::index_t n = a.rows();
    const sparse::index_t shift = static_cast<sparse::index_t>(
        rng.Next() % static_cast<std::uint64_t>(n));
    sparse::Permutation perm(static_cast<std::size_t>(n));
    for (sparse::index_t i = 0; i < n; ++i) {
      perm[static_cast<std::size_t>(i)] = (i + shift) % n;
    }
    s->matrices.push_back(sparse::PermuteSymmetric(a, perm));
  }
  s->pool = std::make_unique<ThreadPool>(4);
  // The figure benches' device: V100 engines, memory scaled 16 GiB -> 16 MiB.
  s->dev0 = std::make_unique<vgpu::Device>(vgpu::ScaledV100Properties(10));
  s->dev1 = std::make_unique<vgpu::Device>(vgpu::ScaledV100Properties(10));
  return s;
}

/// One executor call as the suite saw it.
struct Call {
  int matrix = 0;
  Entry entry = kSync;
  bool ok = false;
  bool verified = false;
  double wall_s = 0.0;      // executor call (+ Assemble for streamed)
  double assemble_s = 0.0;  // streamed only
  core::RunStats stats;
};

Call RunCall(Setup& s, const std::vector<sparse::Csr>& refs, int matrix,
             Entry entry, Tracer& tracer, std::uint64_t parent,
             std::int64_t job) {
  const sparse::Csr& a = s.matrices[static_cast<std::size_t>(matrix)];
  const core::ExecutorOptions options;
  Call call;
  call.matrix = matrix;
  call.entry = entry;
  sparse::Csr c;
  const auto t0 = Clock::now();
  auto take = [&](auto&& r) {
    if (!r.ok()) return;
    call.ok = true;
    call.stats = r->stats;
    c = std::move(r->c);
  };
  switch (entry) {
    case kSync: take(core::SyncOutOfCore(*s.dev0, a, a, options, *s.pool)); break;
    case kAsync: take(core::AsyncOutOfCore(*s.dev0, a, a, options, *s.pool)); break;
    case kHybrid: take(core::Hybrid(*s.dev0, a, a, options, *s.pool)); break;
    case kCpu: take(core::CpuMulticore(a, a, options, *s.pool)); break;
    case kStreamed: {
      core::MemoryChunkSink sink;
      auto r = core::AsyncOutOfCoreStreamed(*s.dev0, a, a, options, *s.pool,
                                            sink);
      const auto t1 = Clock::now();
      tracer.Add(kEntrySpans[entry], parent, job, t0, t1);
      if (r.ok()) {
        call.ok = true;
        call.stats = r->stats;
        c = sink.Assemble(r->row_bounds, r->col_bounds);
        const auto t2 = Clock::now();
        tracer.Add("core.MemoryChunkSink.Assemble", parent, job, t1, t2);
        call.assemble_s = Seconds(t1, t2);
      }
      break;
    }
    case kMulti2: {
      auto r = core::MultiGpuHybrid({s.dev0.get(), s.dev1.get()}, a, a,
                                    options, *s.pool);
      if (r.ok()) {
        call.ok = true;
        call.stats = r->stats.combined;
        c = std::move(r->c);
      }
      break;
    }
    case kNumEntries: break;
  }
  const auto t_end = Clock::now();
  if (entry != kStreamed) tracer.Add(kEntrySpans[entry], parent, job, t0, t_end);
  call.wall_s = Seconds(t0, t_end);
  call.verified = call.ok && c.ApproxEquals(refs[static_cast<std::size_t>(matrix)]);
  return call;
}

/// A seeded shuffle of every (matrix, entry point) pair.
std::vector<std::pair<int, Entry>> ShuffledPairs(int matrices, Pcg32& rng) {
  std::vector<std::pair<int, Entry>> pairs;
  for (int m = 0; m < matrices; ++m) {
    for (int e = 0; e < kNumEntries; ++e) pairs.emplace_back(m, Entry(e));
  }
  for (std::size_t i = pairs.size(); i > 1; --i) {
    std::swap(pairs[i - 1], pairs[rng.Below(static_cast<std::uint32_t>(i))]);
  }
  return pairs;
}

/// Calls of each round, one per (matrix, entry point) pair, matrix-major.
using Rounds = std::vector<std::vector<Call>>;

/// Runs `count` shuffled rounds, verifying every output.
Rounds RunRounds(Setup& s, const std::vector<sparse::Csr>& refs, int count,
                 Pcg32& rng, Tracer& tracer, RunResult& result) {
  const auto start = Clock::now();
  const std::uint64_t phase = tracer.NewId();
  Rounds out;
  std::int64_t job = 0;
  for (int r = 0; r < count; ++r) {
    std::vector<Call> calls;
    for (const auto& [matrix, entry] :
         ShuffledPairs(static_cast<int>(s.matrices.size()), rng)) {
      calls.push_back(RunCall(s, refs, matrix, entry, tracer, phase, job++));
      const Call& c = calls.back();
      ++result.attempted;
      if (!c.ok) ++result.failed;
      if (c.ok && !c.verified) {
        ++result.mismatches;
        ++result.failed;
      }
    }
    // Canonical order (matrix-major) so rounds compare pair by pair.
    std::sort(calls.begin(), calls.end(), [](const Call& x, const Call& y) {
      return std::tie(x.matrix, x.entry) < std::tie(y.matrix, y.entry);
    });
    out.push_back(std::move(calls));
  }
  tracer.Record(phase, "phase.closed_loop", 0, -1, start, Clock::now());
  return out;
}

const Call& Find(const std::vector<Call>& round, int matrix, Entry entry) {
  return round[static_cast<std::size_t>(matrix * kNumEntries + entry)];
}

/// Wall seconds of each pair, best over rounds.  Interference from the
/// host only ever slows a call, so the best round is the steadiest estimate
/// of what the code costs (measured: it halves the run-to-run spread of the
/// tail latency against the median round).
std::vector<double> PairBestWall(const Rounds& rounds) {
  std::vector<double> out;
  for (std::size_t k = 0; k < rounds.front().size(); ++k) {
    double best = rounds.front()[k].wall_s;
    for (const auto& round : rounds) best = std::min(best, round[k].wall_s);
    out.push_back(best);
  }
  return out;
}

/// Exact flops of one round over the sum of the pairs' best wall times.
double WallGflops(const Rounds& rounds, const std::vector<double>& flops) {
  double f = 0.0;
  for (const Call& c : rounds.front()) f += flops[static_cast<std::size_t>(c.matrix)];
  return f / Sum(PairBestWall(rounds)) / 1e9;
}

/// End-to-end and per-layer metrics of a set of measured rounds.
void SetRoundMetrics(const Rounds& rounds, const std::vector<double>& flops,
                     int matrices, RunResult& result) {
  Metrics& m = result.metrics;
  const std::vector<double> best = PairBestWall(rounds);
  std::vector<double> latencies_ms;
  for (double w : best) latencies_ms.push_back(1e3 * w);
  double vflops = 0.0, vseconds = 0.0, chunks = 0.0, gpu_calls = 0.0;
  for (const Call& c : rounds.front()) {
    vflops += static_cast<double>(c.stats.flops);
    vseconds += c.stats.total_seconds;
    if (c.entry != kCpu) {
      chunks += c.stats.num_chunks;
      gpu_calls += 1.0;
    }
  }
  const double calls = static_cast<double>(best.size());
  m.Set("wall_gflops", WallGflops(rounds, flops), "GFLOP/s");
  m.Set("wall_jobs_per_s", calls / Sum(best), "jobs/s");
  m.Set("wall_latency_p50_ms", Quantile(latencies_ms, 0.50), "ms");
  m.Set("wall_latency_p95_ms", Quantile(latencies_ms, 0.95), "ms");
  m.Set("virtual_gflops", vflops / vseconds / 1e9, "GFLOP/s_virtual");
  m.Set("virtual_jobs_per_s", calls / vseconds, "jobs/s_virtual");
  m.Set("partition.chunks", chunks / gpu_calls, "1/job");

  // Per entry point: wall per pass of the nine (each pair at its best
  // round) and the exact virtual seconds per pass.
  for (int e = 0; e < kNumEntries; ++e) {
    double wall = 0.0, v = 0.0;
    for (int i = 0; i < matrices; ++i) {
      wall += best[static_cast<std::size_t>(i * kNumEntries + e)];
      v += Find(rounds.front(), i, Entry(e)).stats.total_seconds;
    }
    m.Set(std::string("core.wall_ms.") + kEntryNames[e], 1e3 * wall, "ms");
    m.Set(std::string("core.virtual_s.") + kEntryNames[e], v, "s_virtual");
  }
  double assemble = 0.0;
  for (int i = 0; i < matrices; ++i) {
    double b = Find(rounds.front(), i, kStreamed).assemble_s;
    for (const auto& r : rounds) b = std::min(b, Find(r, i, kStreamed).assemble_s);
    assemble += b;
  }
  m.Set("core.assemble_ms", 1e3 * assemble, "ms");

  // Virtual per-matrix quantities of one round (identical in every round).
  const auto& round = rounds.front();
  double gpu_chunks = 0.0, all_chunks = 0.0, tf = 0.0, overlap = 0.0;
  double kernel_s = 0.0, h2d_s = 0.0, d2h_s = 0.0;
  double fig4_min = 1e30, fig4_max = 0.0, fig7g_min = 1e30, fig7g_max = 0.0;
  double fig7h_min = 1e30, fig7h_max = 0.0, fig8_min = 1e30, fig8_max = -1e30;
  for (int i = 0; i < matrices; ++i) {
    const core::RunStats& sync = Find(round, i, kSync).stats;
    const core::RunStats& async = Find(round, i, kAsync).stats;
    const core::RunStats& hybrid = Find(round, i, kHybrid).stats;
    const core::RunStats& cpu = Find(round, i, kCpu).stats;
    gpu_chunks += hybrid.num_gpu_chunks;
    all_chunks += hybrid.num_chunks;
    tf += sync.transfer_fraction;
    overlap += async.overlap_factor;
    kernel_s += async.kernel_seconds;
    h2d_s += async.h2d_seconds;
    d2h_s += async.d2h_seconds;
    const double fig4 = 100.0 * sync.transfer_fraction;
    const double gpu_over_cpu = async.gflops() / cpu.gflops();
    const double hybrid_over_gpu = hybrid.gflops() / async.gflops();
    const double async_gain = 100.0 * (sync.total_seconds / async.total_seconds - 1.0);
    fig4_min = std::min(fig4_min, fig4);
    fig4_max = std::max(fig4_max, fig4);
    fig7g_min = std::min(fig7g_min, gpu_over_cpu);
    fig7g_max = std::max(fig7g_max, gpu_over_cpu);
    fig7h_min = std::min(fig7h_min, hybrid_over_gpu);
    fig7h_max = std::max(fig7h_max, hybrid_over_gpu);
    fig8_min = std::min(fig8_min, async_gain);
    fig8_max = std::max(fig8_max, async_gain);
  }
  m.Set("core.hybrid_gpu_chunk_share", gpu_chunks / all_chunks, "fraction");
  m.Set("vgpu.transfer_fraction.sync", tf / matrices, "fraction");
  m.Set("vgpu.overlap_factor.async", overlap / matrices, "ratio");
  m.Set("vgpu.kernel_busy_s.async", kernel_s, "s_virtual");
  m.Set("vgpu.h2d_busy_s.async", h2d_s, "s_virtual");
  m.Set("vgpu.d2h_busy_s.async", d2h_s, "s_virtual");
  m.Set("paper.fig4_transfer_fraction_min", fig4_min, "%");
  m.Set("paper.fig4_transfer_fraction_max", fig4_max, "%");
  m.Set("paper.fig7_gpu_over_cpu_min", fig7g_min, "x");
  m.Set("paper.fig7_gpu_over_cpu_max", fig7g_max, "x");
  m.Set("paper.fig7_hybrid_over_gpu_min", fig7h_min, "x");
  m.Set("paper.fig7_hybrid_over_gpu_max", fig7h_max, "x");
  m.Set("paper.fig8_async_gain_min", fig8_min, "%");
  m.Set("paper.fig8_async_gain_max", fig8_max, "%");

  // The paper's shape claims (Fig. 7/8): async beats sync and hybrid beats
  // async on every matrix, and GPU/CPU stays inside [1.5, 3.03].
  if (!(fig8_min > 0.0) || !(fig7h_min > 1.0) || fig7g_min < 1.5 ||
      fig7g_max > 3.03) {
    std::fprintf(stderr,
                 "paper shape broken: async gain min %.2f%%, hybrid/GPU min "
                 "%.3fx, GPU/CPU %.3f-%.3fx\n",
                 fig8_min, fig7h_min, fig7g_min, fig7g_max);
    result.shape_ok = false;
  }

  // Virtual results are exact: every round must repeat the first bit for bit.
  for (const auto& other : rounds) {
    for (std::size_t k = 0; k < round.size(); ++k) {
      if (other[k].stats.total_seconds != round[k].stats.total_seconds) {
        std::fprintf(stderr, "virtual drift: matrix %d %s %.17g vs %.17g\n",
                     round[k].matrix, kEntryNames[round[k].entry],
                     other[k].stats.total_seconds, round[k].stats.total_seconds);
        ++result.mismatches;
      }
    }
  }
}

}  // namespace

int RunPaperSquare(const Options& options, Clock::time_point process_start,
                   RunResult& result) {
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    setup.reset();
    const auto t0 = Clock::now();
    setup = BuildSetup(options.seed);
    setup_s.push_back(Seconds(t0, Clock::now()));
  }
  Setup& s = *setup;
  const int matrices = static_cast<int>(s.matrices.size());

  std::vector<sparse::Csr> refs;
  std::vector<double> flops;
  for (const sparse::Csr& a : s.matrices) {
    refs.push_back(kernels::ReferenceSpgemm(a, a));
    flops.push_back(static_cast<double>(sparse::TotalFlops(a, a)));
  }

  Tracer tracer(process_start);
  Pcg32 rng(options.seed, /*stream=*/0x5117e);
  RunRounds(s, refs, 1, rng, tracer, result);  // warm-up, untimed

  // A fixed number of rounds per --seconds, so every run does the same
  // work.  The traced run spends half of it traced, between two untraced
  // quarters, so a slowdown over the run cancels out of trace.overhead.
  const double budget = options.traced() ? options.seconds / 2 : options.seconds;
  const int count =
      std::max(1, static_cast<int>(std::lround(budget / kNominalRoundSeconds)));
  Rounds untraced;
  if (options.traced()) {
    untraced = RunRounds(s, refs, std::max(1, count / 2), rng, tracer, result);
    tracer.set_enabled(true);
  }
  const obs::RegistrySnapshot before = obs::MetricsRegistry::Default().Snapshot();
  const Rounds rounds = RunRounds(s, refs, count, rng, tracer, result);
  const obs::RegistrySnapshot after = obs::MetricsRegistry::Default().Snapshot();

  SetRoundMetrics(rounds, flops, matrices, result);
  SetObsDeltaMetrics(before, after,
                     static_cast<double>(count * matrices * kNumEntries),
                     result.metrics);
  result.metrics.Set("setup_s", Median(setup_s), "s");

  if (options.traced()) {
    tracer.set_enabled(false);
    for (auto& round :
         RunRounds(s, refs, std::max(1, count - count / 2), rng, tracer, result)) {
      untraced.push_back(std::move(round));
    }
    const double traced_gflops = WallGflops(rounds, flops);
    const double untraced_gflops = WallGflops(untraced, flops);
    result.metrics.Set("trace.overhead", 1.0 - traced_gflops / untraced_gflops,
                       "fraction");
    std::vector<ReplayInput> inputs;
    for (int i = 0; i < matrices; ++i) {
      inputs.push_back({&s.matrices[static_cast<std::size_t>(i)],
                        &s.matrices[static_cast<std::size_t>(i)],
                        &refs[static_cast<std::size_t>(i)]});
    }
    tracer.set_enabled(true);
    RunLayerReplay(inputs, s.dev0->capacity(), *s.pool, tracer, result);
    if (!tracer.WriteJson(options.trace_path, options, untraced_gflops,
                          traced_gflops)) {
      std::fprintf(stderr, "cannot write trace %s\n", options.trace_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace suite
