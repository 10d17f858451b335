// olap_warm and olap_cold_4t: one caller runs a seeded SQL mix against a
// 1M-row `events` fact table and a small `dims` table through
// exec::Database::Execute (untraced) or through the parse, bind, optimize
// and ExecutePlan calls one by one (traced).
//
//   olap_warm     serial batch engine; the buffer pool holds the whole
//                 table, so exec, catalog deserialization and the plan
//                 kernels do the work.
//   olap_cold_4t  QueryOptions.num_threads = 4 and a pool that holds about
//                 a fifth of the table; the page cache is dropped before
//                 every statement, so the morsel dispatcher, page copies
//                 and CLOCK eviction do the work.
//
// Checks: every execution must return the first execution's rows
// (doubles within 1e-9 relative) and the reference simulated charges bit
// for bit (olap_cold_4t: the charges of a serial cold run). After the
// measured loops, the first executions must match the independent oracle
// (testing::ReferenceEvaluator).

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "datagen/synthetic.h"
#include "exec/database.h"
#include "obs/metrics.h"
#include "perfbench/bench.h"
#include "plan/planner.h"
#include "plan/rewriter.h"
#include "sim/machine.h"
#include "sql/parser.h"
#include "testing/oracle.h"
#include "util/random.h"

namespace vdb::perfbench {
namespace {

constexpr uint64_t kEventRows = 1000000;
constexpr uint64_t kDimRows = 4;
/// Buffer pool size as a share of the events heap: olap_warm's pool holds
/// the whole table, olap_cold_4t's about a fifth of it.
constexpr double kWarmPoolFraction = 2.0;
constexpr double kColdPoolFraction = 0.2;
constexpr int kColdThreads = 4;

std::vector<datagen::ColumnSpec> EventColumns() {
  std::vector<datagen::ColumnSpec> specs(5);
  specs[0].name = "id";
  specs[0].distribution = datagen::Distribution::kSequential;
  specs[1].name = "grp";
  specs[1].distribution = datagen::Distribution::kZipf;
  specs[1].max_value = 99;
  specs[2].name = "cat";
  specs[2].distribution = datagen::Distribution::kUniform;
  specs[2].max_value = kDimRows - 1;
  specs[3].name = "val";
  specs[3].type = catalog::TypeId::kDouble;
  specs[3].distribution = datagen::Distribution::kUniformReal;
  specs[3].max_value = 1000.0;
  specs[4].name = "note";
  specs[4].type = catalog::TypeId::kString;
  specs[4].distribution = datagen::Distribution::kRandomText;
  specs[4].string_length = 12;
  return specs;
}

std::vector<datagen::ColumnSpec> DimColumns() {
  std::vector<datagen::ColumnSpec> specs(3);
  specs[0].name = "cat_id";
  specs[0].distribution = datagen::Distribution::kSequential;
  specs[1].name = "region";
  specs[1].distribution = datagen::Distribution::kUniform;
  specs[1].max_value = 1;
  specs[2].name = "label";
  specs[2].type = catalog::TypeId::kString;
  specs[2].distribution = datagen::Distribution::kRandomText;
  specs[2].string_length = 8;
  return specs;
}

struct Statement {
  const char* name;
  std::string sql;
};

/// The seven-statement mix with seeded constants, in a seeded order. An
/// odd count keeps the median inside one statement's latency cluster when
/// the loop runs whole passes.
std::vector<Statement> MakeMix(uint64_t seed) {
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  static const char* const kWords[] = {"deposits", "requests", "accounts",
                                       "packages", "foxes",    "ideas"};
  const int64_t val_lo = rng.UniformInt(0, 800);
  const int64_t grp_cut = rng.UniformInt(10, 30);
  const int64_t cat_out = rng.UniformInt(0, kDimRows - 1);
  const int64_t val_cut = rng.UniformInt(900, 999);
  const int64_t grp_eq = rng.UniformInt(0, 19);
  const int64_t id_lo = rng.UniformInt(0, kEventRows - 10000);
  const char* word = kWords[rng.Uniform(std::size(kWords))];
  const auto n = [](int64_t v) { return std::to_string(v); };
  std::vector<Statement> mix = {
      {"scan_count", "select count(*) from events"},
      {"filter",
       "select count(*), sum(val) from events where val between " +
           n(val_lo) + ".0 and " + n(val_lo + 200) + ".0 and grp < " +
           n(grp_cut) + " and cat <> " + n(cat_out)},
      {"group_by", "select grp, count(*) as n, sum(val) as total from events "
                   "where val < " +
                       n(val_cut) + ".0 group by grp order by grp"},
      {"join",
       "select d.region, count(*) as n, avg(e.val) as mean_val from events e "
       "join dims d on e.cat = d.cat_id group by d.region order by "
       "d.region"},
      {"top_n", "select id, val from events where grp = " + n(grp_eq) +
                    " order by val desc, id limit 10"},
      {"zone_range", "select count(*), sum(val) from events where id "
                     "between " +
                         n(id_lo) + " and " + n(id_lo + 9999)},
      {"like", std::string("select count(*) from events where note like "
                           "'%") +
                   word + "%'"},
  };
  for (size_t i = mix.size() - 1; i > 0; --i) {
    std::swap(mix[i], mix[rng.Uniform(i + 1)]);
  }
  return mix;
}

bool ValuesMatch(const catalog::Value& a, const catalog::Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() == catalog::TypeId::kDouble ||
      b.type() == catalog::TypeId::kDouble) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::fabs(x - y) <=
           1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return catalog::Value::Compare(a, b) == 0;
}

bool RowLess(const catalog::Tuple& a, const catalog::Tuple& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i].is_null() != b[i].is_null()) return a[i].is_null();
    if (a[i].is_null()) continue;
    const int cmp = catalog::Value::Compare(a[i], b[i]);
    if (cmp != 0) return cmp < 0;
  }
  return a.size() < b.size();
}

/// Ordered comparison of two executions' rows, tolerant on doubles: the
/// 4-thread engine sums doubles in morsel completion order, so the last
/// bits of SUM/AVG vary from run to run.
bool SameRows(const std::vector<catalog::Tuple>& a,
              const std::vector<catalog::Tuple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!ValuesMatch(a[r][c], b[r][c])) return false;
    }
  }
  return true;
}

std::string FormatRow(const catalog::Tuple& row) {
  std::string out = "(";
  for (size_t c = 0; c < row.size(); ++c) {
    if (c > 0) out += ", ";
    out += row[c].ToString();
  }
  return out + ")";
}

/// Multiset comparison, tolerant on doubles (the oracle and the engine
/// may sum in different orders). Empty string on match.
std::string CompareRows(std::vector<catalog::Tuple> engine,
                        std::vector<catalog::Tuple> oracle) {
  if (engine.size() != oracle.size()) {
    return "row count " + std::to_string(engine.size()) + " vs oracle " +
           std::to_string(oracle.size());
  }
  std::sort(engine.begin(), engine.end(), RowLess);
  std::sort(oracle.begin(), oracle.end(), RowLess);
  for (size_t r = 0; r < engine.size(); ++r) {
    if (engine[r].size() != oracle[r].size()) return "column count differs";
    for (size_t c = 0; c < engine[r].size(); ++c) {
      if (!ValuesMatch(engine[r][c], oracle[r][c])) {
        return "row " + FormatRow(engine[r]) + " vs oracle " +
               FormatRow(oracle[r]);
      }
    }
  }
  return "";
}

/// Simulated charges of one execution, compared bit for bit.
struct Charges {
  double elapsed = 0.0;
  double cpu = 0.0;
  double io = 0.0;
  uint64_t reads = 0;

  explicit Charges(const exec::QueryResult& r)
      : elapsed(r.elapsed_seconds),
        cpu(r.cpu_seconds),
        io(r.io_seconds),
        reads(r.physical_reads) {}
  Charges() = default;
  bool operator==(const Charges&) const = default;
};

/// What the traced loop gathers for the per-layer metrics.
struct LayerTally {
  uint64_t ops = 0;
  double exec_wall_s = 0.0;
  double exec_cpu_s = 0.0;
  double scanned_rows = 0.0;
  uint64_t physical_reads = 0;
  uint64_t zone_pruned = 0;
  uint64_t zone_scanned = 0;
  double sim_elapsed_s = 0.0;
  storage::BufferPoolStats pool_before;
};

class OlapWorkload final : public Workload {
 public:
  OlapWorkload(uint64_t seed, bool cold)
      : seed_(seed), cold_(cold), mix_(MakeMix(seed)) {}

  void TearDown() override {
    db_.reset();
    vm_.reset();
  }

  Status SetUp() override {
    db_ = std::make_unique<exec::Database>();
    VDB_RETURN_NOT_OK(datagen::GenerateTable(
        db_->catalog(), "events", EventColumns(), kEventRows, seed_));
    VDB_RETURN_NOT_OK(datagen::GenerateTable(db_->catalog(), "dims",
                                             DimColumns(), kDimRows,
                                             seed_ + 1));
    VDB_RETURN_NOT_OK(db_->catalog()->AnalyzeAll());
    VDB_ASSIGN_OR_RETURN(catalog::TableInfo * events,
                         db_->catalog()->GetTable("events"));
    event_pages_ = events->heap->NumPages();
    const sim::MachineSpec machine = sim::MachineSpec::PaperTestbed();
    // The pool gets kBufferPoolFraction of the VM's memory.
    const double memory_share =
        (cold_ ? kColdPoolFraction : kWarmPoolFraction) *
        static_cast<double>(event_pages_) *
        static_cast<double>(storage::kPageSize) /
        (exec::DbInstanceConfig::kBufferPoolFraction *
         static_cast<double>(machine.memory_bytes));
    vm_ = std::make_unique<sim::VirtualMachine>(
        "olap", machine, sim::HypervisorModel::XenLike(),
        sim::ResourceShare(0.5, memory_share, 0.5));
    return db_->ApplyVmConfig(*vm_);
  }

  Status Verify() override {
    // First executions, serial, cold for olap_cold_4t.
    for (const Statement& statement : mix_) {
      if (cold_) VDB_RETURN_NOT_OK(db_->DropCaches());
      VDB_ASSIGN_OR_RETURN(exec::QueryResult result,
                           db_->Execute(statement.sql, *vm_));
      charges_.emplace_back(result);
      if (std::string(statement.name) == "zone_range" &&
          result.pages_pruned == 0) {
        return Status::Internal("zone_range statement pruned no page");
      }
      first_rows_.push_back(std::move(result.rows));
    }
    if (cold_) {
      exec::QueryOptions options = db_->query_options();
      options.num_threads = kColdThreads;
      db_->set_query_options(options);
    }
    // Warm-up pass, excluded from timing. olap_warm takes its reference
    // charges here, once every page is cached; olap_cold_4t must already
    // reproduce the serial charges.
    for (size_t i = 0; i < mix_.size(); ++i) {
      if (cold_) VDB_RETURN_NOT_OK(db_->DropCaches());
      VDB_ASSIGN_OR_RETURN(exec::QueryResult result,
                           db_->Execute(mix_[i].sql, *vm_));
      if (!SameRows(result.rows, first_rows_[i])) {
        return Status::Internal(std::string(mix_[i].name) +
                                ": warm-up rows differ from the first run");
      }
      if (!cold_) {
        charges_[i] = Charges(result);
      } else if (!(Charges(result) == charges_[i])) {
        return Status::Internal(std::string(mix_[i].name) +
                                ": 4-thread charges differ from serial");
      }
    }
    return Status::OK();
  }

  Status CheckReference() override {
    for (size_t i = 0; i < mix_.size(); ++i) {
      VDB_ASSIGN_OR_RETURN(auto stmt, sql::ParseSelect(mix_[i].sql));
      VDB_ASSIGN_OR_RETURN(
          fuzz::RefResult oracle,
          fuzz::ReferenceEvaluator(db_->catalog()).Evaluate(*stmt));
      const std::string diff = CompareRows(first_rows_[i], oracle.rows);
      if (!diff.empty()) {
        return Status::Internal(std::string(mix_[i].name) +
                                " differs from the oracle: " + diff);
      }
    }
    return Status::OK();
  }

  LoopStats Run(double seconds, Tracer* tracer) override {
    LoopStats stats;
    TraceBuffer* buffer = tracer != nullptr ? tracer->NewBuffer() : nullptr;
    if (tracer != nullptr) {
      tally_ = LayerTally();
      tally_.pool_before = db_->buffer_pool()->stats();
    }
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    const double cpu_start = ProcessCpuSeconds();
    std::vector<std::vector<double>> per_statement_ms(mix_.size());
    // Whole passes over the mix, so every statement runs equally often.
    while (Clock::now() < deadline) {
      for (size_t i = 0; i < mix_.size(); ++i) {
        ++stats.attempted;
        if (cold_ && !db_->DropCaches().ok()) {
          stats.Fail("DropCaches failed");
          continue;
        }
        const Clock::time_point op_start = Clock::now();
        Result<exec::QueryResult> result =
            tracer == nullptr ? db_->Execute(mix_[i].sql, *vm_)
                              : ExecuteTraced(mix_[i].sql,
                                              StartOp(tracer, buffer));
        const double ms = MillisSince(op_start);
        if (!result.ok()) {
          stats.Fail(std::string(mix_[i].name) + ": " +
                     result.status().ToString());
          continue;
        }
        if (!SameRows(result->rows, first_rows_[i])) {
          stats.Fail(std::string(mix_[i].name) + ": rows changed");
          continue;
        }
        if (!(Charges(*result) == charges_[i])) {
          ++charge_mismatches_;
          stats.Fail(std::string(mix_[i].name) + ": charges changed");
          continue;
        }
        stats.latencies_ms.push_back(ms);
        per_statement_ms[i].push_back(ms);
        if (tracer != nullptr) Tally(mix_[i], *result);
      }
    }
    stats.wall_s = SecondsSince(start);
    stats.cpu_s = ProcessCpuSeconds() - cpu_start;
    std::printf("median ms per statement:");
    for (size_t i = 0; i < mix_.size(); ++i) {
      std::printf(" %s=%.2f", mix_[i].name, Median(per_statement_ms[i]));
    }
    std::printf("\n");
    return stats;
  }

  Status LayerMetrics(const LoopStats& traced, Tracer* tracer,
                      MetricSet* out) override {
    (void)traced;
    const TraceSummary summary = tracer->Summarize();
    const double ops = static_cast<double>(std::max<uint64_t>(1, tally_.ops));
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    out->Set("sql.parse_us", 1e3 * summary.MeanMs("sql.parse"), "us");
    out->Set("plan.bind_us", 1e3 * summary.MeanMs("plan.bind"), "us");
    out->Set("optimizer.optimize_us",
             1e3 * summary.MeanMs("optimizer.optimize"), "us");
    out->Set("exec.host_ms", summary.MedianMs("exec.execute_plan"), "ms");
    out->Set("exec.scan_rows_per_s",
             tally_.exec_wall_s > 0 ? tally_.scanned_rows / tally_.exec_wall_s
                                    : 0.0,
             "rows/s");
    out->Set("util.cpu_busy_cores",
             tally_.exec_wall_s > 0 ? tally_.exec_cpu_s / tally_.exec_wall_s
                                    : 0.0,
             "cores");
    const obs::Histogram* queue_wait =
        registry.GetHistogram("thread_pool.queue_wait");
    out->Set("util.pool_queue_wait_ms",
             queue_wait->count() > 0
                 ? 1e3 * queue_wait->sum_seconds() /
                       static_cast<double>(queue_wait->count())
                 : 0.0,
             "ms");
    out->Set("exec.morsels",
             static_cast<double>(
                 registry.GetCounter("exec.morsel.dispatched")->value()) /
                 ops,
             "count");
    out->Set("exec.spill_mb",
             static_cast<double>(
                 registry.GetCounter("exec.spill_pages")->value()) *
                 static_cast<double>(storage::kPageSize) / (1 << 20) / ops,
             "MB");
    const storage::BufferPoolStats& pool = db_->buffer_pool()->stats();
    const double hits =
        static_cast<double>(pool.hits - tally_.pool_before.hits);
    const double misses =
        static_cast<double>(pool.Misses() - tally_.pool_before.Misses());
    out->Set("storage.hit_rate",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    out->Set("storage.pages_read",
             static_cast<double>(tally_.physical_reads) / ops, "count");
    const double zone_pages =
        static_cast<double>(tally_.zone_pruned + tally_.zone_scanned);
    out->Set("storage.pruned_share",
             zone_pages > 0 ? static_cast<double>(tally_.zone_pruned) /
                                  zone_pages
                            : 0.0,
             "ratio");
    out->Set("sim.elapsed_s", tally_.sim_elapsed_s / ops, "s");
    out->Set("sim.charge_mismatches", static_cast<double>(charge_mismatches_),
             "count");
    return Status::OK();
  }

 private:
  /// Database::Execute split into its layer calls, each in a span.
  Result<exec::QueryResult> ExecuteTraced(const std::string& sql,
                                          TraceBuffer* buffer) {
    ScopedSpan op(buffer, "statement");
    std::unique_ptr<sql::SelectStatement> stmt;
    {
      ScopedSpan span(buffer, "sql.parse");
      VDB_ASSIGN_OR_RETURN(stmt, sql::ParseSelect(sql));
    }
    plan::LogicalNodePtr logical;
    {
      ScopedSpan span(buffer, "plan.bind");
      plan::Planner planner(db_->catalog());
      VDB_ASSIGN_OR_RETURN(logical, planner.Plan(*stmt));
      logical = plan::PushDownPredicates(std::move(logical));
    }
    optimizer::PhysicalNodePtr plan;
    {
      ScopedSpan span(buffer, "optimizer.optimize");
      VDB_ASSIGN_OR_RETURN(plan, db_->optimizer()->Optimize(*logical));
    }
    ScopedSpan span(buffer, "exec.execute_plan");
    const Clock::time_point start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    Result<exec::QueryResult> result = db_->ExecutePlan(*plan, *vm_);
    tally_.exec_cpu_s += ProcessCpuSeconds() - cpu_start;
    tally_.exec_wall_s += SecondsSince(start);
    return result;
  }

  void Tally(const Statement& statement, const exec::QueryResult& result) {
    ++tally_.ops;
    tally_.scanned_rows += static_cast<double>(result.pages_scanned) *
                           static_cast<double>(kEventRows) /
                           static_cast<double>(event_pages_);
    tally_.physical_reads += result.physical_reads;
    tally_.sim_elapsed_s += result.elapsed_seconds;
    if (std::string(statement.name) == "zone_range") {
      tally_.zone_pruned += result.pages_pruned;
      tally_.zone_scanned += result.pages_scanned;
    }
  }

  const uint64_t seed_;
  const bool cold_;
  const std::vector<Statement> mix_;
  std::unique_ptr<exec::Database> db_;
  std::unique_ptr<sim::VirtualMachine> vm_;
  uint64_t event_pages_ = 1;
  std::vector<std::vector<catalog::Tuple>> first_rows_;
  std::vector<Charges> charges_;
  uint64_t charge_mismatches_ = 0;
  LayerTally tally_;
};

}  // namespace

std::unique_ptr<Workload> MakeOlapWarm(uint64_t seed) {
  return std::make_unique<OlapWorkload>(seed, false);
}

std::unique_ptr<Workload> MakeOlapCold4t(uint64_t seed) {
  return std::make_unique<OlapWorkload>(seed, true);
}

}  // namespace vdb::perfbench
