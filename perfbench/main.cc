// vdb_perfbench — the repo's wall-clock benchmark (see README.md here).
//
// Usage:
//   vdb_perfbench --workload olap_warm|olap_cold_4t|advisor_search|tenants_wire
//                 --seed N --seconds S --trace 0|1
//                 [--tenants perfbench/tenants.conf] [--trace-dir DIR]
//
// Sets the workload up at least three times (setup_s is the median),
// verifies its first executions, measures a closed loop for S seconds,
// then checks the first executions against the independent reference.
// --trace 0 prints the end-to-end metrics; --trace 1 runs
// S/2 seconds untraced and S/2 traced, prints the per-layer metrics, and
// writes the spans to DIR/<workload>-seed<N>.jsonl. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. Exit
// code 0 only when every operation was correct.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "obs/metrics.h"
#include "perfbench/bench.h"

namespace vdb::perfbench {
namespace {

/// Set-ups per run: at least kMinSetUps, and more while they have taken
/// less than kMinSetUpSeconds in all, so a set-up of milliseconds still
/// yields a steady median.
constexpr int kMinSetUps = 3;
constexpr int kMaxSetUps = 25;
constexpr double kMinSetUpSeconds = 1.0;
/// latency_tail_ms: the highest percentile with at least 10 samples beyond
/// it on every workload at the benchmark's run length, fixed so the metric
/// keeps one meaning across runs.
constexpr double kTailPercentile = 90.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string tenants = "perfbench/tenants.conf";
  std::string trace_dir = ".bench_build/perfbench/traces";
};

int Usage() {
  std::fprintf(stderr,
               "usage: vdb_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tenants PATH] [--trace-dir DIR]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--tenants") {
      args->tenants = value;
    } else if (key == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "olap_warm") return MakeOlapWarm(args.seed);
  if (args.workload == "olap_cold_4t") return MakeOlapCold4t(args.seed);
  if (args.workload == "advisor_search") return MakeAdvisorSearch(args.seed);
  if (args.workload == "tenants_wire") {
    return MakeTenantsWire(args.seed, args.tenants);
  }
  return nullptr;
}

/// Operations per second of host time spent inside operations.
double RateInsideOps(const LoopStats& stats) {
  double total_ms = 0.0;
  for (double ms : stats.latencies_ms) total_ms += ms;
  return total_ms > 0 ? 1e3 * static_cast<double>(stats.latencies_ms.size()) /
                            total_ms
                      : 0.0;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const MetricSet& metrics) {
  for (const auto& [name, value] : metrics.entries()) {
    std::printf("  %-28s %16.6f %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics.entries()) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(value.first) ? value.first : 0.0);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
            value.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  // The engine reads these at Database construction. Pin them so the
  // caller's environment cannot change what is measured; spill stays on
  // the charge-only model so no query writes outside memory.
  for (const char* name : {"VDB_EXEC_MODE", "VDB_EXEC_THREADS",
                           "VDB_ZONEMAPS", "VDB_KERNELS"}) {
    ::unsetenv(name);
  }
  ::setenv("VDB_SPILL", "off", 1);

  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return Usage();
  }

  std::vector<double> setup_seconds;
  double setup_total_s = 0.0;
  while (static_cast<int>(setup_seconds.size()) < kMinSetUps ||
         (setup_total_s < kMinSetUpSeconds &&
          static_cast<int>(setup_seconds.size()) < kMaxSetUps)) {
    workload->TearDown();
    const Clock::time_point start = Clock::now();
    const Status status = workload->SetUp();
    setup_seconds.push_back(SecondsSince(start));
    setup_total_s += setup_seconds.back();
    if (!status.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  std::printf("workload %s seed %llu: setup %.3f s (median of %d)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              Median(setup_seconds), static_cast<int>(setup_seconds.size()));

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const Status verified = workload->Verify();
  if (!verified.ok()) {
    std::printf("VERIFY FAILED: %s\n", verified.ToString().c_str());
    correct = false;
    ++attempted;
    ++failed;
  }
  const auto account = [&](const LoopStats& stats, const char* label) {
    attempted += stats.attempted;
    failed += stats.failed;
    if (stats.failed > 0) {
      correct = false;
      std::printf("%s loop: %llu of %llu operations failed; first: %s\n",
                  label, static_cast<unsigned long long>(stats.failed),
                  static_cast<unsigned long long>(stats.attempted),
                  stats.first_error.c_str());
    }
  };

  // Without complete references no operation can be checked, so a failed
  // Verify reports zeroes instead of measuring.
  const auto run = [&](double seconds, Tracer* tracer) {
    return verified.ok() ? workload->Run(seconds, tracer) : LoopStats();
  };
  // A mismatch with the reference makes every timed operation suspect, so
  // it counts as one more failed operation.
  const auto check_reference = [&] {
    const Clock::time_point start = Clock::now();
    const Status checked =
        verified.ok() ? workload->CheckReference() : Status::OK();
    std::printf("reference check: %.3f s\n", SecondsSince(start));
    if (!checked.ok()) {
      std::printf("REFERENCE CHECK FAILED: %s\n", checked.ToString().c_str());
      correct = false;
      ++attempted;
      ++failed;
    }
  };
  MetricSet metrics;
  if (args.trace == 0) {
    const LoopStats stats = run(args.seconds, nullptr);
    account(stats, "measured");
    const double peak_rss_mb = PeakRssMb();
    check_reference();
    const double ops = static_cast<double>(stats.latencies_ms.size());
    const double beyond = ops * (1.0 - kTailPercentile / 100.0);
    std::printf("%.0f operations in %.3f s; latency_tail_ms is p%g "
                "(%.1f samples beyond it)%s\n",
                ops, stats.wall_s, kTailPercentile, beyond,
                beyond < 10 ? " -- FEWER THAN 10" : "");
    metrics.Set("setup_s", Median(setup_seconds), "s");
    metrics.Set("ops_per_s", stats.wall_s > 0 ? ops / stats.wall_s : 0.0,
                "1/s");
    metrics.Set("latency_p50_ms", Median(stats.latencies_ms), "ms");
    metrics.Set("latency_tail_ms",
                Quantile(stats.latencies_ms, kTailPercentile / 100.0), "ms");
    metrics.Set("cpu_ms_per_op", ops > 0 ? 1e3 * stats.cpu_s / ops : 0.0,
                "ms");
    const double error_share =
        attempted > 0 ? static_cast<double>(failed) /
                            static_cast<double>(attempted)
                      : 1.0;
    std::printf("error_share = %g (failed / attempted)\n", error_share);
    metrics.Set("success_share", 1.0 - error_share, "ratio");
    metrics.Set("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    const LoopStats plain = run(0.5 * args.seconds, nullptr);
    account(plain, "untraced");
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.Reset();
    registry.set_enabled(true);
    Tracer tracer;
    const LoopStats traced = run(0.5 * args.seconds, &tracer);
    account(traced, "traced");
    ZeroLayerMetrics(&metrics);
    workload->SetUpMetrics(&metrics);
    const Status layers =
        verified.ok() ? workload->LayerMetrics(traced, &tracer, &metrics)
                      : Status::OK();
    registry.set_enabled(false);
    if (!layers.ok()) {
      std::printf("LAYER CHECK FAILED: %s\n", layers.ToString().c_str());
      correct = false;
      ++attempted;
      ++failed;
    }
    check_reference();
    const double untraced_rate = RateInsideOps(plain);
    metrics.Set("obs.trace_overhead",
                untraced_rate > 0 ? RateInsideOps(traced) / untraced_rate
                                  : 0.0,
                "ratio");
    const TraceSummary summary = tracer.Summarize();
    for (const auto& [kind, time] : summary.ops) {
      const double coverage = summary.Coverage(kind);
      std::printf("operation %-14s %6llu traced, layer self time / wall = "
                  "%.4f\n",
                  kind.c_str(), static_cast<unsigned long long>(time.spans),
                  coverage);
      if (std::fabs(coverage - 1.0) > kCoverageTolerance) {
        std::printf("LAYER SELF TIMES DO NOT SUM TO OPERATION WALL TIME "
                    "WITHIN %.0f%%\n",
                    100 * kCoverageTolerance);
        correct = false;
      }
    }
    for (const auto& [layer, time] : summary.layers) {
      std::printf("layer %-22s %8llu spans, self %10.3f ms, total %10.3f "
                  "ms\n",
                  layer.c_str(), static_cast<unsigned long long>(time.spans),
                  time.self_ms, time.total_ms);
    }
    std::error_code ec;
    std::filesystem::create_directories(args.trace_dir, ec);
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    const Status written = tracer.WriteJsonLines(path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
    } else {
      std::printf("spans written to %s\n", path.c_str());
    }
  }
  workload->TearDown();
  PrintResult(correct, attempted == 0 ? 1 : attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace vdb::perfbench

int main(int argc, char** argv) { return vdb::perfbench::Main(argc, argv); }
