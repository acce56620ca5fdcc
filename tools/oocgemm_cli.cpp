// Command-line front end for the library.
//
//   oocgemm_cli generate --kind=rmat --scale=13 --edge-factor=8 --out=a.mtx
//   oocgemm_cli analyze a.mtx [b.mtx]
//   oocgemm_cli multiply a.mtx [b.mtx] --executor=hybrid --device-mem=16
//               [--ratio=0.67] [--out=c.mtx] [--trace=run.json] [--verify]
//   oocgemm_cli serve --jobs=64 --devices=2 --verify --metrics-out=m.prom
//   oocgemm_cli serve --shards=3 --replication=2 --jobs=48 --verify
//
// Every subcommand has one flag table (Commands() below) holding each
// flag's name, type, default, valid values and help line; the parser and
// the usage text are both built from it.  An unknown flag (`--help`
// included), a value that does not parse in full or lies outside its range
// or choice list, a value on a presence flag, a repeated flag, a flag
// without the one it needs (`--route` and `--replication` need `--shards`,
// `--metrics-interval` needs `--metrics-out`, `--fault-seed` needs
// `--fault-spec`) or without the value of another flag it needs, given or
// by default (`--estimator-seed` and `--estimator-sample` need
// `--admission=estimate`, `--calibrate-interval` a `--calibrate` other than
// off, `multiply --ratio` `--executor=hybrid` and `--trace` a GPU executor,
// `generate --half-bandwidth` `--kind=banded` and `--edge-factor` the
// other kinds) and a stray positional argument each print the usage and
// exit 2.
//
// `multiply` squares a.mtx when no second matrix is given (the paper's
// C = A x A convention); files ending in .bin use the binary format.
//
// `serve` runs a seeded synthetic workload through the serving runtime and
// exits 1 if a job fails verification or hits a device OOM, if a fleet
// report does not reconcile with its shard reports, or if --report or
// --metrics-out cannot be written.  The workload is one of three shapes:
//   - mixed squarings (5/8 small ER, 2/8 medium R-MAT, 1/8 large R-MAT);
//   - with --batch > 1, ER A operands against 2 shared R-MAT B operands,
//     so same-operand batches can form;
//   - with --shards, ER A operands against 4 shared B operands as explicit
//     out-of-core device jobs of 4 tenants, so placement is the lever.
// With --shards=N, a FleetRouter serves N shards of --devices GPUs each,
// every shard built from the same server configuration as a lone server.
// --fault-spec device indices are global and shard-major: dev<K> is shard
// K/D, device K%D, so `--shards=3 --fault-spec=dev1:kernel:nth=6:kill`
// kills shard 1's only device.  Each rule after `dev<K>:` is a
// vgpu::FaultSpec rule (see fault_injector.hpp), seeded --fault-seed + K.
// --metrics-out starts the process's one metrics exporter before the first
// submission and stops it after the server or router shut down, so the
// files end at the terminal state in either mode (see src/obs/).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "calibrate/calibrator.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/executors.hpp"
#include "fleet/router.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/reference_spgemm.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshotter.hpp"
#include "serve/server.hpp"
#include "sparse/analysis.hpp"
#include "sparse/generators.hpp"
#include "sparse/io.hpp"
#include "vgpu/device.hpp"
#include "vgpu/fault_injector.hpp"
#include "vgpu/trace_export.hpp"

namespace {

using namespace oocgemm;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Valid values of a numeric flag: lo..hi, each end closed unless marked open.
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = false;

  bool Holds(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }
  std::string ToString() const {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%c%g, %g%c", lo_open ? '(' : '[', lo, hi,
                  hi_open || std::isinf(hi) ? ')' : ']');
    return buf;
  }
};

constexpr Range kCount{1, kInf};
constexpr Range kNonNeg{0, kInf};
// Wall-clock periods stay far inside what a steady_clock duration holds.
constexpr Range kSeconds{0, 86400};
// Each device's memory is a host arena of that size.
constexpr Range kDeviceMib{0, 4096, true};
// Algorithm 4's GPU flop share S/(S+1).
constexpr Range kGpuShare{0, 1, true, true};

// One flag of one subcommand.
struct Flag {
  enum Type { kInt, kSeed, kReal, kText, kChoice, kPresence };
  const char* name;
  Type type;
  const char* dflt;  // as typed on the command line; nullptr: none
  const char* help;
  Range range = {};                       // kInt, kReal
  std::vector<std::string> choices = {};  // kChoice
  // A flag that must come with it ("shards"), or the values another flag
  // must take, given or by default ("kind=rmat|er").
  const char* needs = nullptr;
};

class Args;

struct Command {
  const char* name;
  const char* operands;  // positional arguments, as the usage shows them
  std::size_t min_operands;
  std::size_t max_operands;
  int (*run)(const Args&);
  std::vector<Flag> flags;

  const Flag* Find(const std::string& flag) const {
    for (const Flag& f : flags) {
      if (flag == f.name) return &f;
    }
    return nullptr;
  }
};

template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

std::string Join(const std::vector<std::string>& choices) {
  std::string out;
  for (const std::string& c : choices) out += (out.empty() ? "" : "|") + c;
  return out;
}

// True when `value` is one of the |-separated `choices`.
bool Lists(const std::string& choices, const std::string& value) {
  return ("|" + choices + "|").find("|" + value + "|") != std::string::npos;
}

// Why `value` is no value of `flag`; empty when it is one.
std::string Invalid(const Flag& flag, const std::string& value) {
  double v = 0;
  switch (flag.type) {
    case Flag::kSeed: {
      std::uint64_t seed = 0;
      return ParseNumber(value, &seed) ? "" : "want an unsigned integer";
    }
    case Flag::kInt: {
      int i = 0;
      if (!ParseNumber(value, &i)) return "want an integer";
      v = i;
      break;
    }
    case Flag::kReal:
      if (!ParseNumber(value, &v) || !std::isfinite(v)) return "want a number";
      break;
    case Flag::kText:
      return value.empty() ? "want a value" : "";
    case Flag::kChoice:
      for (const std::string& c : flag.choices) {
        if (value == c) return "";
      }
      return "want one of " + Join(flag.choices);
    case Flag::kPresence:
      return "";
  }
  return flag.range.Holds(v) ? "" : "want a value in " + flag.range.ToString();
}

// A subcommand's operands and the flags given, checked against its table.
class Args {
 public:
  explicit Args(const Command& command) : command(command) {}

  // Checks argv[2..]; returns why it is not a valid command line, or "".
  std::string Parse(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        operands.push_back(arg);
        continue;
      }
      const std::size_t eq = arg.find('=');
      const bool bare = eq == arg.npos;
      const std::string name = arg.substr(2, bare ? eq : eq - 2);
      const Flag* flag = command.Find(name);
      if (flag == nullptr) return "unknown flag --" + name;
      if (Has(name)) return "--" + name + " given twice";
      if ((flag->type == Flag::kPresence) != bare) {
        return arg + (bare ? ": wants a value" : ": takes no value");
      }
      const std::string value = bare ? "" : arg.substr(eq + 1);
      if (const std::string why = Invalid(*flag, value); !why.empty()) {
        return arg + ": " + why;
      }
      given_[name] = value;
    }
    if (operands.size() > command.max_operands) {
      return "unexpected argument '" + operands[command.max_operands] + "'";
    }
    if (operands.size() < command.min_operands) {
      return std::string("want ") + command.operands;
    }
    for (const Flag& f : command.flags) {
      if (f.needs == nullptr || !Has(f.name)) continue;
      const std::string needs = f.needs;
      const std::size_t eq = needs.find('=');
      const std::string other = needs.substr(0, eq);
      if (eq == needs.npos ? !Has(other)
                           : !Lists(needs.substr(eq + 1), Text(other))) {
        return std::string("--") + f.name + " needs --" + needs;
      }
    }
    return "";
  }

  bool Has(const std::string& name) const { return given_.count(name) > 0; }
  // The given value, else the table's default (a flag without one must be
  // given before it is read).
  std::string Text(const std::string& name) const {
    if (auto it = given_.find(name); it != given_.end()) return it->second;
    const Flag* flag = command.Find(name);
    OOC_CHECK(flag != nullptr && flag->dflt != nullptr);
    return flag->dflt;
  }
  int Int(const std::string& name) const { return Number<int>(name); }
  std::uint64_t Seed(const std::string& name) const {
    return Number<std::uint64_t>(name);
  }
  double Real(const std::string& name) const { return Number<double>(name); }

  const Command& command;
  std::vector<std::string> operands;

 private:
  template <typename T>
  T Number(const std::string& name) const {
    T v{};
    OOC_CHECK(ParseNumber(Text(name), &v));
    return v;
  }

  std::map<std::string, std::string> given_;
};

const std::vector<Command>& Commands();

void PrintUsage(const Command& cmd) {
  std::fprintf(stderr, "  oocgemm_cli %s%s%s\n", cmd.name,
               *cmd.operands ? " " : "", cmd.operands);
  for (const Flag& f : cmd.flags) {
    // Indexed by Flag::Type.
    const char* const metavar[] = {"=N", "=SEED", "=X", "=TEXT", "=", ""};
    std::string spec = std::string("--") + f.name + metavar[f.type];
    if (f.type == Flag::kChoice) spec += Join(f.choices);
    std::string help = f.help;
    if (f.type == Flag::kInt || f.type == Flag::kReal) {
      help.append("; in ").append(f.range.ToString());
    }
    if (f.dflt != nullptr) help.append("; default ").append(f.dflt);
    if (f.needs != nullptr) help.append("; needs --").append(f.needs);
    std::fprintf(stderr, "      %-36s %s\n", spec.c_str(), help.c_str());
  }
}

// Prints why the command line is wrong and the usage of `cmd` (of every
// command when null); returns the usage-error exit code.
int UsageError(const Command* cmd, const std::string& why) {
  std::fprintf(stderr, "oocgemm_cli: %s\nusage:\n", why.c_str());
  for (const Command& c : Commands()) {
    if (cmd == nullptr || cmd == &c) PrintUsage(c);
  }
  return 2;
}

int Fail(const Status& st) {
  std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return 1;
}

bool IsBinary(const std::string& path) {
  return path.size() > 4 && path.ends_with(".bin");
}

StatusOr<sparse::Csr> Load(const std::string& path) {
  return IsBinary(path) ? sparse::ReadBinary(path)
                        : sparse::ReadMatrixMarket(path);
}

Status Save(const sparse::Csr& m, const std::string& path) {
  return IsBinary(path) ? sparse::WriteBinary(m, path)
                        : sparse::WriteMatrixMarket(m, path);
}

// The operands of analyze and multiply: B is A when only A is named.
Status LoadOperands(const Args& args, sparse::Csr* a, sparse::Csr* b) {
  for (std::size_t i = 0; i < args.operands.size(); ++i) {
    StatusOr<sparse::Csr> m = Load(args.operands[i]);
    if (!m.ok()) return m.status();
    *(i == 0 ? a : b) = std::move(m.value());
  }
  if (args.operands.size() == 1) *b = *a;
  return Status::Ok();
}

std::int64_t MiB(double mib) {
  return static_cast<std::int64_t>(mib * (1 << 20));
}

int Generate(const Args& args) {
  if (!args.Has("out")) return UsageError(&args.command, "--out is required");
  const std::string kind = args.Text("kind");
  const int scale = args.Int("scale");
  const sparse::index_t n = sparse::index_t{1} << scale;
  const double degree = args.Real("edge-factor");
  const int band = args.Int("half-bandwidth");
  const std::uint64_t seed = args.Seed("seed");
  const sparse::Csr m =
      kind == "rmat"
          ? sparse::GenerateRmat(
                {.scale = scale, .edge_factor = degree, .seed = seed})
      : kind == "er"
          ? sparse::GenerateErdosRenyi(
                {.rows = n, .cols = n, .avg_degree = degree, .seed = seed})
          : sparse::GenerateBanded(
                {.n = n, .half_bandwidth = band, .seed = seed});
  if (Status st = Save(m, args.Text("out")); !st.ok()) return Fail(st);
  std::printf("wrote %s: %s\n", args.Text("out").c_str(),
              m.DebugString().c_str());
  return 0;
}

int Analyze(const Args& args) {
  sparse::Csr a, b;
  if (Status st = LoadOperands(args, &a, &b); !st.ok()) return Fail(st);
  sparse::ProductStats s = sparse::AnalyzeProduct(a, b);
  TablePrinter t({"property", "value"});
  t.AddRow({"A", a.DebugString()});
  t.AddRow({"B", b.DebugString()});
  t.AddRow({"flop(A*B)", HumanCount(static_cast<double>(s.flops))});
  t.AddRow({"nnz(A*B)", HumanCount(static_cast<double>(s.nnz_out))});
  t.AddRow({"compression ratio", Fixed(s.compression_ratio, 2)});
  t.AddRow({"row-work gini", Fixed(s.row_flops_gini, 3)});
  t.AddRow({"max row flops", HumanCount(s.max_row_flops)});
  t.Print();
  return 0;
}

int Multiply(const Args& args) {
  sparse::Csr a, b;
  if (Status st = LoadOperands(args, &a, &b); !st.ok()) return Fail(st);

  vgpu::DeviceProperties props = vgpu::ScaledV100Properties(10);
  props.memory_bytes = MiB(args.Real("device-mem"));
  vgpu::Device device(props);

  ThreadPool pool;
  core::ExecutorOptions options;
  options.gpu_ratio = args.Real("ratio");

  const std::string executor = args.Text("executor");
  StatusOr<core::RunResult> r =
      executor == "async"    ? core::AsyncOutOfCore(device, a, b, options, pool)
      : executor == "sync"   ? core::SyncOutOfCore(device, a, b, options, pool)
      : executor == "hybrid" ? core::Hybrid(device, a, b, options, pool)
                             : core::CpuMulticore(a, b, options, pool);
  if (!r.ok()) return Fail(r.status());

  std::printf("%s\n", r->stats.DebugString().c_str());

  if (args.Has("verify")) {
    if (!r->c.ApproxEquals(kernels::ReferenceSpgemm(a, b))) {
      std::fprintf(stderr, "VERIFY FAILED: result differs from reference\n");
      return 1;
    }
    std::printf("verify: OK\n");
  }
  if (args.Has("trace")) {
    Status st =
        vgpu::WriteChromeTrace(device.trace(), args.Text("trace"), device.id());
    if (!st.ok()) return Fail(st);
    std::printf("trace: %s\n", args.Text("trace").c_str());
  }
  if (args.Has("out")) {
    if (Status st = Save(r->c, args.Text("out")); !st.ok()) return Fail(st);
    std::printf("wrote %s\n", args.Text("out").c_str());
  }
  return 0;
}

// --fault-spec=dev1:kernel:nth=40,dev0:h2d:p=0.02:fail: groups the
// `dev<K>:` rules by device and installs one injector on each named device.
// K indexes `devices`.  Returns 0, or the usage-error code for a bad spec.
int InstallFaultInjectors(
    const Args& args, const std::vector<vgpu::Device*>& devices,
    std::vector<std::unique_ptr<vgpu::FaultInjector>>& injectors) {
  if (!args.Has("fault-spec")) return 0;
  std::vector<std::string> per_device(devices.size());
  std::istringstream fault_spec(args.Text("fault-spec"));
  for (std::string rule; std::getline(fault_spec, rule, ',');) {
    const std::size_t colon = rule.find(':');
    std::size_t dev = 0;
    if (rule.rfind("dev", 0) != 0 || colon == std::string::npos ||
        !ParseNumber(rule.substr(3, colon - 3), &dev) ||
        dev >= devices.size() || colon + 1 == rule.size()) {
      return UsageError(&args.command, "--fault-spec rule '" + rule +
                                           "': want dev<K>:<rule>, K < " +
                                           std::to_string(devices.size()));
    }
    std::string& rules = per_device[dev];
    if (!rules.empty()) rules += ',';
    rules += rule.substr(colon + 1);
  }
  for (std::size_t k = 0; k < devices.size(); ++k) {
    if (per_device[k].empty()) continue;
    auto spec =
        vgpu::FaultSpec::Parse(per_device[k], args.Seed("fault-seed") + k);
    if (!spec.ok()) {
      return UsageError(&args.command,
                        "bad --fault-spec: " + spec.status().ToString());
    }
    injectors.push_back(std::make_unique<vgpu::FaultInjector>(spec.value()));
    devices[k]->set_fault_injector(injectors.back().get());
  }
  return 0;
}

// One job of the mixed workload: a small ER product, a medium R-MAT
// squaring, or an occasional large out-of-core one.
sparse::Csr MixedSquaringOperand(SplitMix64& rng) {
  const std::uint64_t pick = rng.Next() % 8;
  if (pick < 5) {
    return sparse::GenerateErdosRenyi(
        {.rows = 64, .cols = 64, .avg_degree = 4.0, .seed = rng.Next()});
  }
  return sparse::GenerateRmat(
      {.scale = pick < 7 ? 7 : 9, .edge_factor = 8.0, .seed = rng.Next()});
}

// What `serve` runs on: one server, or a fleet router over shard servers.
struct Target {
  std::unique_ptr<serve::SpgemmServer> server;
  std::unique_ptr<fleet::FleetRouter> router;

  std::future<serve::JobResult> Submit(serve::SpgemmJob job) {
    return router ? router->Submit(std::move(job))
                  : server->Submit(std::move(job));
  }
  void Drain() { router ? router->Drain() : server->Drain(); }
  void Shutdown() { router ? router->Shutdown() : server->Shutdown(); }
};

int Serve(const Args& args) {
  const bool fleet = args.Has("shards");
  const int shards = fleet ? args.Int("shards") : 1;
  const int per_shard = args.Int("devices");
  const int jobs = args.Int("jobs");
  const int batch = args.Has("batch") ? args.Int("batch") : fleet ? 8 : 1;

  // Global device K is shard K / per_shard, device K % per_shard.
  vgpu::DeviceProperties props = vgpu::ScaledV100Properties(10);
  props.memory_bytes = MiB(args.Real("device-mem"));
  std::vector<std::unique_ptr<vgpu::Device>> devices;
  std::vector<vgpu::Device*> device_ptrs;
  for (int k = 0; k < shards * per_shard; ++k) {
    devices.push_back(std::make_unique<vgpu::Device>(props));
    device_ptrs.push_back(devices.back().get());
  }
  std::vector<std::unique_ptr<vgpu::FaultInjector>> injectors;
  if (int rc = InstallFaultInjectors(args, device_ptrs, injectors)) return rc;
  ThreadPool pool;

  serve::ServerConfig config;
  config.scheduler.num_workers = args.Has("workers")
                                     ? args.Int("workers")
                                     : std::max(fleet ? 2 : 4, per_shard + 1);
  config.scheduler.cpu_lanes = std::max(1, config.scheduler.num_workers - 1);
  config.scheduler.max_batch_jobs = batch;
  config.scheduler.max_devices_per_job = args.Int("span");
  config.scheduler.kernel = *kernels::ParseAccumulatorKind(args.Text("kernel"));
  config.max_queue =
      static_cast<std::size_t>(args.Has("queue") ? args.Int("queue") : jobs);
  config.default_timeout_seconds = args.Real("timeout");
  serve::ParseAdmissionMode(args.Text("admission"), &config.admission_mode);
  config.estimator.seed = args.Seed("estimator-seed");
  config.estimator.row_sample_fraction = args.Real("estimator-sample");
  calibrate::ParseCalibrateMode(args.Text("calibrate"), &config.calibrate.mode);
  config.calibrate.interval_seconds = args.Real("calibrate-interval");

  Target target;
  if (fleet) {
    const bool random = args.Text("route") ==
                        fleet::RoutingPolicyName(fleet::RoutingPolicy::kRandom);
    std::vector<std::vector<vgpu::Device*>> shard_devices;
    for (std::size_t k = 0; k < device_ptrs.size(); k += per_shard) {
      shard_devices.emplace_back(&device_ptrs[k], &device_ptrs[k] + per_shard);
    }
    target.router = std::make_unique<fleet::FleetRouter>(
        std::move(shard_devices), pool,
        fleet::FleetConfig{
            .shard = config,
            .policy = random ? fleet::RoutingPolicy::kRandom
                             : fleet::RoutingPolicy::kAffinity,
            .replication = {.replication = args.Int("replication")}});
  } else {
    target.server =
        std::make_unique<serve::SpgemmServer>(device_ptrs, pool, config);
  }
  std::unique_ptr<obs::Snapshotter> snapshotter;
  if (args.Has("metrics-out")) {
    obs::Snapshotter::Options opts;
    opts.interval_seconds = args.Real("metrics-interval");
    opts.prometheus_path = args.Text("metrics-out");
    opts.json_path = opts.prometheus_path + ".json";
    snapshotter = std::make_unique<obs::Snapshotter>(
        obs::MetricsRegistry::Default(), std::move(opts));
  }

  // Shared-operand shapes draw every job's B from this pool, so batches and
  // panel reuse can form; the mixed shape squares a fresh matrix per job.
  SplitMix64 rng(args.Seed("seed"));
  std::vector<std::shared_ptr<const sparse::Csr>> shared_bs(
      fleet ? 4 : batch > 1 ? 2 : 0);
  for (auto& b : shared_bs) {
    b = std::make_shared<const sparse::Csr>(sparse::GenerateRmat(
        {.scale = 8, .edge_factor = 8.0, .seed = rng.Next()}));
  }
  struct Pending {
    std::shared_ptr<const sparse::Csr> a;
    std::shared_ptr<const sparse::Csr> b;
    std::future<serve::JobResult> future;
  };
  std::vector<Pending> pending;
  const double load = args.Real("load");
  for (int i = 0; i < jobs; ++i) {
    serve::SpgemmJob job;
    if (shared_bs.empty()) {
      job.a = std::make_shared<const sparse::Csr>(MixedSquaringOperand(rng));
      job.b = job.a;
    } else {
      job.b = shared_bs[rng.Next() % shared_bs.size()];
      const sparse::index_t n = job.b->rows();
      job.a = std::make_shared<const sparse::Csr>(sparse::GenerateErdosRenyi(
          {.rows = n, .cols = n, .avg_degree = 4.0, .seed = rng.Next()}));
    }
    if (fleet) {
      job.options.mode = core::ExecutionMode::kGpuOutOfCore;
      job.options.tenant = "tenant-" + std::to_string(i % 4);
    }
    job.options.exec.gpu_ratio = args.Real("ratio");
    job.options.priority = static_cast<int>(rng.Next() % 4);
    job.options.virtual_arrival = load > 0.0 ? i / load : 0.0;
    pending.push_back({job.a, job.b, target.Submit(std::move(job))});
  }
  target.Drain();

  int verify_failures = 0;
  for (auto& p : pending) {
    serve::JobResult r = p.future.get();
    if (!r.ok()) {
      std::printf("job %llu: %s (%s)\n",
                  static_cast<unsigned long long>(r.metrics.id),
                  serve::JobOutcomeName(r.metrics.outcome),
                  r.status.ToString().c_str());
      continue;
    }
    if (args.Has("verify") &&
        !r.c.ApproxEquals(kernels::ReferenceSpgemm(*p.a, *p.b))) {
      std::fprintf(stderr, "VERIFY FAILED: job %llu\n",
                   static_cast<unsigned long long>(r.metrics.id));
      ++verify_failures;
    }
  }

  // Prints the report and writes its JSON to --report; false if that fails.
  auto publish = [&](const auto& report) {
    std::printf("%s\n", report.DebugString().c_str());
    if (!args.Has("report")) return true;
    std::ofstream out(args.Text("report"));
    if (!(out << report.ToJson() << "\n")) {
      std::fprintf(stderr, "cannot write %s\n", args.Text("report").c_str());
      return false;
    }
    std::printf("report: %s\n", args.Text("report").c_str());
    return true;
  };
  bool healthy;
  if (fleet) {
    const fleet::FleetReport report = target.router->Report();
    healthy = publish(report) && report.Reconciles() &&
              report.totals.device_oom_failures == 0;
    if (!report.Reconciles()) {
      std::fprintf(stderr, "FLEET REPORT DOES NOT RECONCILE with its shards\n");
    }
  } else {
    const serve::ServerReport report = target.server->Report();
    healthy = publish(report) && report.device_oom_failures == 0;
  }
  if (args.Has("verify") && verify_failures == 0) std::printf("verify: OK\n");
  // Shutdown runs the calibrator's final tick; the exporter's last write
  // comes after it.
  target.Shutdown();
  if (snapshotter != nullptr) {
    snapshotter->Stop();
    // Stop's final write drops its status; the same write again tells.
    if (Status st = snapshotter->WriteNow(); !st.ok()) return Fail(st);
    std::printf("metrics: %s (+ .json)\n", args.Text("metrics-out").c_str());
  }
  return verify_failures == 0 && healthy ? 0 : 1;
}

template <typename Enum>
std::vector<std::string> Spellings(const char* (*name)(Enum),
                                   std::initializer_list<Enum> values) {
  std::vector<std::string> out;
  for (Enum v : values) out.push_back(name(v));
  return out;
}

// The flag tables.  Upper bounds keep values inside what the code holds:
// `--scale` and `--half-bandwidth` inside index_t arithmetic,
// `--edge-factor` inside the generators' int64 edge counts, `--workers`,
// `--shards` and `--devices` to bounded thread and device counts.
const std::vector<Command>& Commands() {
  using F = Flag;
  using calibrate::CalibrateMode;
  using fleet::RoutingPolicy;
  using kernels::AccumulatorKind;
  using serve::AdmissionMode;
  static const std::vector<Flag> generate_flags = {
      {"kind", F::kChoice, "rmat", "matrix family", {},
       {"rmat", "er", "banded"}},
      {"scale", F::kInt, "12", "2^scale rows", {0, 30}},
      {"edge-factor", F::kReal, "8", "nonzeros per row", {0, 1024}, {},
       "kind=rmat|er"},
      {"half-bandwidth", F::kInt, "8", "band half-width", {0, 1 << 30}, {},
       "kind=banded"},
      {"seed", F::kSeed, "1", "generator seed"},
      {"out", F::kText, nullptr, "output file, required (.bin: binary)"},
  };
  static const std::vector<Flag> multiply_flags = {
      {"executor", F::kChoice, "async", "executor", {},
       {"async", "sync", "hybrid", "cpu"}},
      {"device-mem", F::kReal, "16", "device memory in MiB", kDeviceMib},
      {"ratio", F::kReal, "0.67", "hybrid GPU flop share", kGpuShare, {},
       "executor=hybrid"},
      {"out", F::kText, nullptr, "write C here (.bin: binary)"},
      {"trace", F::kText, nullptr, "write the device's Chrome trace here", {},
       {}, "executor=async|sync|hybrid"},
      {"verify", F::kPresence, nullptr, "check C against the reference"},
  };
  static const std::vector<Flag> serve_flags = {
      {"jobs", F::kInt, "64", "jobs to submit", kCount},
      {"load", F::kReal, "0", "jobs per virtual second (0: at once)", kNonNeg},
      {"workers", F::kInt, nullptr,
       "workers per server; default max(4, D+1), fleet max(2, D+1)", {1, 256}},
      {"queue", F::kInt, nullptr, "queue bound per server; default --jobs",
       kCount},
      {"batch", F::kInt, nullptr, "jobs per batch; default 1, fleet 8", kCount},
      {"devices", F::kInt, "1", "devices per server (D)", {1, 64}},
      {"span", F::kInt, "1", "devices one hybrid job may span", kCount},
      {"device-mem", F::kReal, "1", "memory per device in MiB", kDeviceMib},
      {"timeout", F::kReal, "0", "job timeout, wall seconds (0: none)",
       kSeconds},
      {"seed", F::kSeed, "1", "workload seed"},
      {"ratio", F::kReal, "0.67", "hybrid GPU flop share", kGpuShare},
      {"report", F::kText, nullptr, "write the report JSON here"},
      {"verify", F::kPresence, nullptr, "check every product"},
      {"fault-spec", F::kText, nullptr, "dev<K>:<rule>[,...]; K shard-major"},
      {"fault-seed", F::kSeed, "1", "fault schedule seed", {}, {},
       "fault-spec"},
      {"metrics-out", F::kText, nullptr, "export metrics here and at +.json"},
      {"metrics-interval", F::kReal, "0.5",
       "wall seconds between exports (0: at exit only)", kSeconds, {},
       "metrics-out"},
      {"admission", F::kChoice, "exact", "how jobs are priced", {},
       Spellings(serve::AdmissionModeName,
                 {AdmissionMode::kExact, AdmissionMode::kEstimate})},
      {"estimator-seed", F::kSeed, "1", "sampling estimator seed", {}, {},
       "admission=estimate"},
      {"estimator-sample", F::kReal, "0.05", "estimator row-sample fraction",
       {0, 1, true}, {}, "admission=estimate"},
      {"kernel", F::kChoice, "auto", "accumulator strategy", {},
       Spellings(kernels::AccumulatorKindName,
                 {AccumulatorKind::kAuto, AccumulatorKind::kHash,
                  AccumulatorKind::kDense, AccumulatorKind::kSortMerge,
                  AccumulatorKind::kRowMerge})},
      {"calibrate", F::kChoice, "off", "cost-model calibration", {},
       Spellings(calibrate::CalibrateModeName,
                 {CalibrateMode::kOff, CalibrateMode::kObserve,
                  CalibrateMode::kApply})},
      {"calibrate-interval", F::kReal, "0.05", "calibration tick, wall seconds",
       {0, kSeconds.hi, true}, {}, "calibrate=observe|apply"},
      {"shards", F::kInt, nullptr, "serve through a fleet of shards", {2, 64}},
      {"replication", F::kInt, "1", "shards a hot operand spreads over", kCount,
       {}, "shards"},
      {"route", F::kChoice, "affinity", "fleet placement", {},
       Spellings(fleet::RoutingPolicyName,
                 {RoutingPolicy::kAffinity, RoutingPolicy::kRandom}),
       "shards"},
  };
  static const std::vector<Command> commands = {
      {"generate", "", 0, 0, Generate, generate_flags},
      {"analyze", "A.mtx [B.mtx]", 1, 2, Analyze, {}},
      {"multiply", "A.mtx [B.mtx]", 1, 2, Multiply, multiply_flags},
      {"serve", "", 0, 0, Serve, serve_flags},
  };
  return commands;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return UsageError(nullptr, "no command");
  for (const Command& cmd : Commands()) {
    if (argv[1] != std::string(cmd.name)) continue;
    Args args(cmd);
    if (const std::string why = args.Parse(argc, argv); !why.empty()) {
      return UsageError(&cmd, why);
    }
    return cmd.run(args);
  }
  return UsageError(nullptr, std::string("unknown command ") + argv[1]);
}
