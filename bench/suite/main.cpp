// oocgemm_suite: the benchmark-suite runner binary.
//
//   oocgemm_suite --workload=paper-square|serve-mixed|fleet-shared-b
//                 [--seed=1] [--seconds=20] [--trace=FILE] [--out=FILE]
//
// Runs one workload in this process, checks every product against
// kernels::ReferenceSpgemm, and prints one `name workload value unit` line
// per metric.  --seconds sizes the measured phases (about that many seconds
// on a 4-core host).  --trace makes this the traced run: half the measured
// work runs with in-memory spans, between two untraced quarters, a
// layer-replay phase follows, and the spans are written to FILE as JSON.
// Per-layer metrics come from the traced half.  --out writes the
// run's result (every metric) as JSON.  Exit status: 0 on success, 1 when
// an output mismatched its reference or a paper-shape claim broke, 2 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "suite.hpp"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: oocgemm_suite --workload=paper-square|serve-mixed|"
               "fleet-shared-b [--seed=S] [--seconds=T] [--trace=FILE] "
               "[--out=FILE]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, suite::Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      options->workload = value;
    } else if (key == "seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options->seconds > 0.0)) return false;
    } else if (key == "trace") {
      options->trace_path = value;
    } else if (key == "out") {
      options->out_path = value;
    } else {
      return false;
    }
  }
  return options->workload == "paper-square" ||
         options->workload == "serve-mixed" ||
         options->workload == "fleet-shared-b";
}

bool WriteResult(const suite::Options& options, const suite::RunResult& r) {
  std::ofstream out(options.out_path);
  if (!out) return false;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
                "\"trace\": %d, \"correct\": %s, \"shape_ok\": %s, "
                "\"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.traced() ? 1 : 0, r.correct() ? "true" : "false",
                r.shape_ok ? "true" : "false",
                static_cast<long long>(r.attempted),
                static_cast<long long>(r.failed));
  out << buf;
  bool first = true;
  for (const auto& [name, entry] : r.metrics.all()) {
    std::snprintf(buf, sizeof(buf), "%s\n\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ",", name.c_str(), entry.value, entry.unit.c_str());
    out << buf;
    first = false;
  }
  out << "\n}}\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = suite::Clock::now();
  suite::Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage();

  suite::RunResult result;
  const int rc = options.workload == "paper-square"
                     ? suite::RunPaperSquare(options, process_start, result)
                     : suite::RunServeWorkload(options, process_start, result);
  if (rc != 0) return rc;
  result.metrics.Set("peak_rss_mib", suite::PeakRssMib(), "MiB");
  if (options.traced()) suite::FillUnmeasuredLayers(result.metrics);

  for (const auto& [name, entry] : result.metrics.all()) {
    std::printf("%s %s %.6g %s\n", name.c_str(), options.workload.c_str(),
                entry.value, entry.unit.c_str());
  }
  std::printf("attempted %lld failed %lld correct %s shape_ok %s\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.correct() ? "true" : "false",
              result.shape_ok ? "true" : "false");
  if (!options.out_path.empty() && !WriteResult(options, result)) {
    std::fprintf(stderr, "cannot write %s\n", options.out_path.c_str());
    return 1;
  }
  return result.correct() && result.shape_ok ? 0 : 1;
}
