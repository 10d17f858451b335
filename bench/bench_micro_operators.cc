// Microbenchmarks (google-benchmark) of the engine's hot paths: executor
// operators, optimizer planning throughput, the calibration solver, and
// the design search. These measure *host* performance of the simulator
// itself (not simulated time) — useful for keeping the reproduction fast.

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench/bench_util.h"
#include "calib/calibration.h"
#include "core/cost_model.h"
#include "core/search.h"
#include "datagen/calibration_db.h"
#include "datagen/synthetic.h"
#include "exec/database.h"
#include "sim/machine.h"
#include "sim/virtual_machine.h"
#include "util/linalg.h"
#include "util/random.h"

namespace vdb {
namespace {

// Shared environment: one synthetic database reused across benchmarks.
exec::Database* GlobalDb() {
  static exec::Database* db = [] {
    auto* instance = new exec::Database();
    using datagen::ColumnSpec;
    using datagen::Distribution;
    ColumnSpec key;
    key.name = "k";
    key.distribution = Distribution::kSequential;
    ColumnSpec value;
    value.name = "v";
    value.distribution = Distribution::kUniform;
    value.min_value = 0;
    value.max_value = 999;
    ColumnSpec text;
    text.name = "s";
    text.type = catalog::TypeId::kString;
    text.distribution = Distribution::kRandomText;
    text.string_length = 24;
    VDB_CHECK_OK(datagen::GenerateTable(instance->catalog(), "t",
                                        {key, value, text}, 50000, 7));
    VDB_CHECK_OK(datagen::GenerateTable(instance->catalog(), "u",
                                        {key, value}, 5000, 8));
    VDB_CHECK(instance->catalog()->CreateIndex("t_k", "t", "k").ok());
    VDB_CHECK_OK(instance->catalog()->AnalyzeAll());
    return instance;
  }();
  return db;
}

sim::VirtualMachine BenchVm() {
  return sim::VirtualMachine("vm", sim::MachineSpec::PaperTestbed(),
                             sim::HypervisorModel::XenLike(),
                             sim::ResourceShare(0.5, 0.5, 0.5));
}

void RunQuery(benchmark::State& state, const char* sql) {
  exec::Database* db = GlobalDb();
  sim::VirtualMachine vm = BenchVm();
  VDB_CHECK_OK(db->ApplyVmConfig(vm));
  // Pin the engine instead of inheriting whatever the shared Database
  // picked up at construction: the baselines for these entries are
  // batch-engine numbers, and an ambient VDB_EXEC_MODE would silently
  // shift them.
  const exec::ExecMode saved = db->exec_mode();
  db->set_exec_mode(exec::ExecMode::kBatch);
  for (auto _ : state) {
    auto result = db->Execute(sql, vm);
    VDB_CHECK(result.ok()) << result.status();
    benchmark::DoNotOptimize(result->rows.size());
  }
  db->set_exec_mode(saved);
}

void BM_SeqScanCount(benchmark::State& state) {
  RunQuery(state, "select count(*) from t");
}
BENCHMARK(BM_SeqScanCount);

void BM_FilteredScan(benchmark::State& state) {
  RunQuery(state, "select count(*) from t where v < 100 and s like '%a%'");
}
BENCHMARK(BM_FilteredScan);

void BM_IndexPointLookup(benchmark::State& state) {
  RunQuery(state, "select v from t where k = 25000");
}
BENCHMARK(BM_IndexPointLookup);

void BM_HashJoin(benchmark::State& state) {
  RunQuery(state,
           "select count(*) from t, u where t.k = u.k and u.v < 500");
}
BENCHMARK(BM_HashJoin);

void BM_SortLimit(benchmark::State& state) {
  RunQuery(state, "select k from t order by v, k limit 100");
}
BENCHMARK(BM_SortLimit);

void BM_GroupAggregate(benchmark::State& state) {
  RunQuery(state,
           "select v, count(*), sum(k), avg(k) from t group by v");
}
BENCHMARK(BM_GroupAggregate);

// Engine-throughput benchmarks: the same query on the row and batch
// engines, reported as rows/sec over the scanned base table. These feed
// the perf gate's direction-aware entries (higher is better); the batch
// engine is expected to hold a large multiple over the row engine on
// scan-heavy shapes.
void RunEngineThroughput(benchmark::State& state, exec::ExecMode mode,
                         const char* sql, double rows_per_query) {
  exec::Database* db = GlobalDb();
  sim::VirtualMachine vm = BenchVm();
  VDB_CHECK_OK(db->ApplyVmConfig(vm));
  const exec::ExecMode saved = db->exec_mode();
  db->set_exec_mode(mode);
  for (auto _ : state) {
    auto result = db->Execute(sql, vm);
    VDB_CHECK(result.ok()) << result.status();
    benchmark::DoNotOptimize(result->rows.size());
  }
  db->set_exec_mode(saved);
  state.counters["rows_per_sec"] = benchmark::Counter(
      rows_per_query * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_ScanRowEngine(benchmark::State& state) {
  RunEngineThroughput(state, exec::ExecMode::kRow,
                      "select count(*) from t", 50000);
}
BENCHMARK(BM_ScanRowEngine);

void BM_ScanBatchEngine(benchmark::State& state) {
  RunEngineThroughput(state, exec::ExecMode::kBatch,
                      "select count(*) from t", 50000);
}
BENCHMARK(BM_ScanBatchEngine);

void BM_ScanFilterRowEngine(benchmark::State& state) {
  RunEngineThroughput(state, exec::ExecMode::kRow,
                      "select count(*) from t where v < 100", 50000);
}
BENCHMARK(BM_ScanFilterRowEngine);

void BM_ScanFilterBatchEngine(benchmark::State& state) {
  RunEngineThroughput(state, exec::ExecMode::kBatch,
                      "select count(*) from t where v < 100", 50000);
}
BENCHMARK(BM_ScanFilterBatchEngine);

void BM_OptimizerPrepareJoin(benchmark::State& state) {
  exec::Database* db = GlobalDb();
  const char* sql =
      "select count(*) from t, u where t.k = u.k and t.v between 10 and "
      "200 and u.v < 500";
  for (auto _ : state) {
    auto plan = db->Prepare(sql);
    VDB_CHECK(plan.ok());
    benchmark::DoNotOptimize((*plan)->total_cost_ms);
  }
}
BENCHMARK(BM_OptimizerPrepareJoin);

void BM_LeastSquaresSolve(benchmark::State& state) {
  Random rng(5);
  Matrix a(24, 5);
  std::vector<double> b(24);
  for (size_t r = 0; r < 24; ++r) {
    for (size_t c = 0; c < 5; ++c) a.At(r, c) = rng.UniformDouble(0, 100);
    b[r] = rng.UniformDouble(0, 1000);
  }
  for (auto _ : state) {
    auto solution = NonNegativeLeastSquares(a, b);
    VDB_CHECK(solution.ok());
    benchmark::DoNotOptimize(solution->data());
  }
}
BENCHMARK(BM_LeastSquaresSolve);

void BM_BTreeInsertLookup(benchmark::State& state) {
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 512);
  storage::BPlusTree tree(&disk, &pool);
  Random rng(11);
  for (int i = 0; i < 20000; ++i) {
    VDB_CHECK_OK(tree.Insert(rng.UniformInt(0, 1000000), i));
  }
  int64_t probe = 0;
  for (auto _ : state) {
    auto values = tree.Lookup(probe);
    VDB_CHECK(values.ok());
    benchmark::DoNotOptimize(values->size());
    probe = (probe + 7919) % 1000000;
  }
}
BENCHMARK(BM_BTreeInsertLookup);

// Console reporter that additionally captures each run's per-iteration
// real time into the BenchReport, so the perf gate can track the
// microbenchmarks from BENCH_micro_operators.json.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(bench::BenchReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration ||
          run.iterations == 0) {
        continue;
      }
      report_->AddTiming(run.benchmark_name() + "/iter_s",
                         run.real_accumulated_time /
                             static_cast<double>(run.iterations));
      // User counters (already finalized to rates where requested) land
      // in the report's values section, e.g. ".../rows_per_sec".
      for (const auto& [counter_name, counter] : run.counters) {
        report_->AddValue(run.benchmark_name() + "/" + counter_name,
                          counter.value);
      }
    }
  }

 private:
  bench::BenchReport* report_;
};

}  // namespace
}  // namespace vdb

// Expanded BENCHMARK_MAIN() with the JSON side channel bolted on.
int main(int argc, char** argv) {
  // The shared Database reads VDB_EXEC_MODE / VDB_SPILL at construction.
  // Scrub them before anything is built so ambient values cannot skew the
  // numbers the perf gate compares against bench/baseline.json;
  // benchmarks that want a non-default mode pin it explicitly
  // (RunEngineThroughput).
  ::unsetenv("VDB_EXEC_MODE");
  ::unsetenv("VDB_SPILL");
  vdb::bench::InitMetrics();
  vdb::bench::BenchReport report("micro_operators");
  vdb::bench::Stopwatch total_watch;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  vdb::JsonCaptureReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  report.AddTiming("total_s", total_watch.Seconds());
  return report.Finish(0);
}
