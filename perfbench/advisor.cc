// advisor_search: each operation is one cold-cache dynamic-programming
// design search (core::Advisor::Recommend, SearchOptions.num_threads = 4)
// over a seeded set of four TPC-H workloads at SF 0.05, with CPU and I/O
// controlled. Set-up generates the data and runs a small calibration
// grid; after that exec does no work, and what-if planning (sql, plan,
// optimizer, calib store lookups, the core search) does all of it.
//
// Checks: every set's recommendation must be identical at 1 and 4 search
// threads (taken before timing) and on every timed search. The traced run
// also replays one search's probes through the public layer calls. Each
// replayed cost must equal WorkloadCostModel::Cost bit for bit, and the
// replay's summed layer self time must be within 10% of a 1-thread search
// of the same set, so the per-call layer times describe what the search
// really does.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "calib/grid.h"
#include "core/advisor.h"
#include "core/cost_model.h"
#include "core/search.h"
#include "datagen/calibration_db.h"
#include "datagen/tpch.h"
#include "datagen/tpch_queries.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "perfbench/bench.h"
#include "plan/planner.h"
#include "plan/rewriter.h"
#include "sql/parser.h"
#include "util/random.h"

namespace vdb::perfbench {
namespace {

constexpr double kTpchScale = 0.05;
constexpr int kGridSteps = 16;
constexpr int kProblemSets = 4;
constexpr int kSearchThreads = 4;
/// Passes of 1-thread searches; each replays set 0's probes once.
constexpr int kReplays = 5;
/// Every supported TPC-H query, dealt to four workloads per set. Each set
/// holds the same statements, so a search costs about the same whichever
/// way the seed deals them.
constexpr int kQueries[] = {1, 3, 4, 5, 6, 10, 12, 13, 14, 18};
constexpr size_t kWorkloadSizes[] = {3, 3, 2, 2};

bool SameSolution(const core::DesignSolution& a,
                  const core::DesignSolution& b) {
  if (a.total_cost_ms != b.total_cost_ms ||
      a.allocations.size() != b.allocations.size()) {
    return false;
  }
  for (size_t i = 0; i < a.allocations.size(); ++i) {
    for (int r = 0; r < sim::kNumResources; ++r) {
      const auto kind = static_cast<sim::ResourceKind>(r);
      if (a.allocations[i].Get(kind) != b.allocations[i].Get(kind)) {
        return false;
      }
    }
  }
  return true;
}

class AdvisorWorkload final : public Workload {
 public:
  explicit AdvisorWorkload(uint64_t seed) : seed_(seed) {}

  void TearDown() override {
    sets_.clear();
    references_.clear();
    tpch_.reset();
    store_ = calib::CalibrationStore();
  }

  Status SetUp() override {
    // The paper's testbed with 256 MiB of memory, so the calibration VMs'
    // buffer pools stay small.
    sim::MachineSpec machine = sim::MachineSpec::PaperTestbed();
    machine.memory_bytes = 256ULL << 20;
    // A small calibration grid: 3 x 3 (cpu, io) points at the memory
    // share the searches hold fixed (1/4 each).
    {
      exec::Database calibration_db;
      datagen::CalibrationDbConfig config;
      config.base_rows = 5000;
      config.seed = seed_;
      VDB_RETURN_NOT_OK(
          datagen::GenerateCalibrationDb(calibration_db.catalog(), config));
      const Clock::time_point start = Clock::now();
      calib::CalibrationGridSpec spec;
      spec.cpu_shares = {0.05, 0.5, 0.95};
      spec.memory_shares = {0.25};
      spec.io_shares = {0.05, 0.5, 0.95};
      VDB_ASSIGN_OR_RETURN(
          store_, calib::CalibrateGrid(&calibration_db, machine,
                                       sim::HypervisorModel::XenLike(), spec));
      grid_seconds_.push_back(SecondsSince(start));
    }
    tpch_ = std::make_unique<exec::Database>();
    datagen::TpchConfig tpch;
    tpch.scale_factor = kTpchScale;
    tpch.seed = seed_;
    VDB_RETURN_NOT_OK(datagen::GenerateTpch(tpch_->catalog(), tpch));

    Random rng(seed_ * 0x9E3779B97F4A7C15ULL + 23);
    for (int set = 0; set < kProblemSets; ++set) {
      std::vector<int> queries(std::begin(kQueries), std::end(kQueries));
      for (size_t i = queries.size() - 1; i > 0; --i) {
        std::swap(queries[i], queries[rng.Uniform(i + 1)]);
      }
      core::VirtualizationDesignProblem problem;
      problem.machine = machine;
      problem.controlled = {sim::ResourceKind::kCpu, sim::ResourceKind::kIo};
      problem.grid_steps = kGridSteps;
      size_t next = 0;
      for (size_t w = 0; w < std::size(kWorkloadSizes); ++w) {
        core::Workload workload;
        workload.name = "w";
        workload.name += std::to_string(w);
        for (size_t k = 0; k < kWorkloadSizes[w]; ++k) {
          VDB_ASSIGN_OR_RETURN(std::string sql,
                               datagen::TpchQuery(queries[next++]));
          workload.statements.push_back(std::move(sql));
        }
        problem.workloads.push_back(std::move(workload));
      }
      problem.databases.assign(problem.workloads.size(), tpch_.get());
      sets_.push_back(std::move(problem));
    }
    return Status::OK();
  }

  Status Verify() override {
    core::Advisor advisor(&store_);
    for (const core::VirtualizationDesignProblem& problem : sets_) {
      VDB_ASSIGN_OR_RETURN(
          core::DesignSolution serial,
          advisor.Recommend(problem, core::SearchAlgorithm::kDynamicProgramming,
                            core::SearchOptions{1}));
      VDB_ASSIGN_OR_RETURN(
          core::DesignSolution parallel,
          advisor.Recommend(problem, core::SearchAlgorithm::kDynamicProgramming,
                            core::SearchOptions{kSearchThreads}));
      if (!SameSolution(serial, parallel)) {
        return Status::Internal("recommendation differs between 1 and " +
                                std::to_string(kSearchThreads) +
                                " search threads");
      }
      references_.push_back(std::move(serial));
    }
    return Status::OK();
  }

  LoopStats Run(double seconds, Tracer* tracer) override {
    LoopStats stats;
    TraceBuffer* buffer = tracer != nullptr ? tracer->NewBuffer() : nullptr;
    if (tracer != nullptr) tally_ = Tally();
    core::Advisor advisor(&store_);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    const double cpu_start = ProcessCpuSeconds();
    for (size_t op = 0; Clock::now() < deadline; ++op) {
      const size_t set = op % sets_.size();
      ++stats.attempted;
      const Clock::time_point op_start = Clock::now();
      Result<core::DesignSolution> solution =
          tracer == nullptr
              ? advisor.Recommend(sets_[set],
                                  core::SearchAlgorithm::kDynamicProgramming,
                                  core::SearchOptions{kSearchThreads})
              : SearchTraced(sets_[set], StartOp(tracer, buffer));
      const double ms = MillisSince(op_start);
      if (!solution.ok()) {
        stats.Fail(solution.status().ToString());
        continue;
      }
      if (!SameSolution(*solution, references_[set])) {
        stats.Fail("recommendation changed for set " + std::to_string(set));
        continue;
      }
      stats.latencies_ms.push_back(ms);
    }
    stats.wall_s = SecondsSince(start);
    stats.cpu_s = ProcessCpuSeconds() - cpu_start;
    return stats;
  }

  Status LayerMetrics(const LoopStats& traced, Tracer* tracer,
                      MetricSet* out) override {
    (void)traced;
    // Registry figures first: the replay below probes again.
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    const obs::Histogram* probe =
        registry.GetHistogram("cost_model.probe_latency");
    out->Set("core.probe_ms",
             probe->count() > 0 ? 1e3 * probe->sum_seconds() /
                                      static_cast<double>(probe->count())
                                : 0.0,
             "ms");
    const obs::Histogram* queue_wait =
        registry.GetHistogram("thread_pool.queue_wait");
    out->Set("util.pool_queue_wait_ms",
             queue_wait->count() > 0
                 ? 1e3 * queue_wait->sum_seconds() /
                       static_cast<double>(queue_wait->count())
                 : 0.0,
             "ms");
    const double searches =
        static_cast<double>(std::max<uint64_t>(1, tally_.searches));
    out->Set("core.probes", static_cast<double>(tally_.probes) / searches,
             "count");
    out->Set("core.cache_hit_ratio",
             tally_.calls > 0 ? static_cast<double>(tally_.hits) /
                                    static_cast<double>(tally_.calls)
                              : 0.0,
             "ratio");
    out->Set("util.cpu_busy_cores",
             tally_.wall_s > 0 ? tally_.cpu_s / tally_.wall_s : 0.0, "cores");

    // The same searches on one thread, for the 4-thread speedup. Each
    // search of set 0 is followed by a replay of its probes: the replay
    // makes the same probes, so its summed layer self time must match that
    // search's time, or the per-call layer times would not describe where
    // the search spends it. Each ratio compares two adjacent intervals, so
    // host load hits both; the check takes the median ratio.
    const auto replay_self_ms = [tracer] {
      const TraceSummary summary = tracer->Summarize();
      const auto it = summary.layer_self_ms.find("probe_replay");
      return it == summary.layer_self_ms.end() ? 0.0 : it->second;
    };
    std::vector<double> serial_ms;
    std::vector<double> ratios;
    core::Advisor advisor(&store_);
    for (int rep = 0; rep < kReplays; ++rep) {
      for (size_t set = 0; set < sets_.size(); ++set) {
        const Clock::time_point start = Clock::now();
        VDB_RETURN_NOT_OK(
            advisor
                .Recommend(sets_[set],
                           core::SearchAlgorithm::kDynamicProgramming,
                           core::SearchOptions{1})
                .status());
        serial_ms.push_back(MillisSince(start));
        if (set == 0) {
          const double before = replay_self_ms();
          VDB_RETURN_NOT_OK(ReplayProbes(sets_[0], tracer));
          ratios.push_back((replay_self_ms() - before) / serial_ms.back());
        }
      }
    }
    out->Set("core.search_1t_ms", Median(serial_ms), "ms");
    const double coverage = Median(ratios);
    std::printf("probe replay of set 0: layer self time / 1-thread search "
                "time = %.4f (median of %d)\n",
                coverage, kReplays);
    if (std::fabs(coverage - 1.0) > kCoverageTolerance) {
      return Status::Internal("probe replay layer time differs from the "
                              "1-thread search time by more than 10%");
    }

    const TraceSummary summary = tracer->Summarize();
    out->Set("core.search_ms", summary.MedianMs("core.search"), "ms");
    out->Set("sql.parse_us", 1e3 * summary.MeanMs("sql.parse"), "us");
    out->Set("plan.bind_us", 1e3 * summary.MeanMs("plan.bind"), "us");
    out->Set("optimizer.optimize_us",
             1e3 * summary.MeanMs("optimizer.optimize"), "us");
    out->Set("calib.lookup_us", 1e3 * summary.MeanMs("calib.lookup"), "us");
    return Status::OK();
  }

  void SetUpMetrics(MetricSet* out) override {
    out->Set("calib.grid_s", Median(grid_seconds_), "s");
  }

 private:
  struct Tally {
    uint64_t searches = 0;
    uint64_t probes = 0;
    uint64_t hits = 0;
    uint64_t calls = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
  };

  /// Advisor::Recommend with its cost model in view, in a core.search span.
  Result<core::DesignSolution> SearchTraced(
      const core::VirtualizationDesignProblem& problem, TraceBuffer* buffer) {
    ScopedSpan op(buffer, "search");
    ScopedSpan span(buffer, "core.search");
    core::WorkloadCostModel cost(&problem, &store_);
    const Clock::time_point start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    Result<core::DesignSolution> solution = core::SolveDesignProblem(
        problem, &cost, core::SearchAlgorithm::kDynamicProgramming,
        core::SearchOptions{kSearchThreads});
    tally_.cpu_s += ProcessCpuSeconds() - cpu_start;
    tally_.wall_s += SecondsSince(start);
    ++tally_.searches;
    tally_.probes += cost.evaluations();
    tally_.hits += cost.cache_hits();
    tally_.calls += cost.calls();
    return solution;
  }

  /// Re-issues every probe a search of `problem` makes — one per workload
  /// and allocation cell — through the public layer calls, each in a span,
  /// and checks each total against the cost model's own.
  Status ReplayProbes(const core::VirtualizationDesignProblem& problem,
                      Tracer* tracer) {
    TraceBuffer* buffer = tracer->NewBuffer();
    core::WorkloadCostModel reference(&problem, &store_);
    const int n = static_cast<int>(problem.NumWorkloads());
    const int max_units = problem.grid_steps - (n - 1);
    for (size_t w = 0; w < problem.NumWorkloads(); ++w) {
      for (int cpu = 1; cpu <= max_units; ++cpu) {
        for (int io = 1; io <= max_units; ++io) {
          const sim::ResourceShare share =
              core::ShareFromUnits(problem, {cpu, io});
          double total_ms = 0.0;
          {
            ScopedSpan op(StartOp(tracer, buffer), "probe_replay");
            ScopedSpan probe(buffer, "core.probe");
            optimizer::OptimizerParams params;
            {
              ScopedSpan span(buffer, "calib.lookup");
              VDB_ASSIGN_OR_RETURN(params, store_.Lookup(share));
            }
            for (const std::string& sql : problem.workloads[w].statements) {
              VDB_ASSIGN_OR_RETURN(double ms, PrepareTraced(sql, params,
                                                            buffer));
              total_ms += ms;
            }
            total_ms *= problem.workloads[w].importance;
          }
          VDB_ASSIGN_OR_RETURN(double expected, reference.Cost(w, share));
          if (total_ms != expected) {
            return Status::Internal("replayed probe cost differs from "
                                    "WorkloadCostModel::Cost");
          }
        }
      }
    }
    return Status::OK();
  }

  /// Database::Prepare(sql, params) split into its layer calls.
  Result<double> PrepareTraced(const std::string& sql,
                               const optimizer::OptimizerParams& params,
                               TraceBuffer* buffer) {
    std::unique_ptr<sql::SelectStatement> stmt;
    {
      ScopedSpan span(buffer, "sql.parse");
      VDB_ASSIGN_OR_RETURN(stmt, sql::ParseSelect(sql));
    }
    plan::LogicalNodePtr logical;
    {
      ScopedSpan span(buffer, "plan.bind");
      plan::Planner planner(tpch_->catalog());
      VDB_ASSIGN_OR_RETURN(logical, planner.Plan(*stmt));
      logical = plan::PushDownPredicates(std::move(logical));
    }
    ScopedSpan span(buffer, "optimizer.optimize");
    optimizer::Optimizer whatif(params);
    whatif.set_zone_maps_enabled(tpch_->zone_maps_enabled());
    VDB_ASSIGN_OR_RETURN(optimizer::PhysicalNodePtr plan,
                         whatif.Optimize(*logical));
    return plan->total_cost_ms;
  }

  const uint64_t seed_;
  calib::CalibrationStore store_;
  std::unique_ptr<exec::Database> tpch_;
  std::vector<core::VirtualizationDesignProblem> sets_;
  std::vector<core::DesignSolution> references_;
  std::vector<double> grid_seconds_;
  Tally tally_;
};

}  // namespace

std::unique_ptr<Workload> MakeAdvisorSearch(uint64_t seed) {
  return std::make_unique<AdvisorWorkload>(seed);
}

}  // namespace vdb::perfbench
