// Database: the top-level engine facade — storage, catalog, optimizer,
// and both executors, with spill-to-disk attached (DESIGN.md §14).

#ifndef VDB_EXEC_DATABASE_H_
#define VDB_EXEC_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/db_config.h"
#include "exec/execution_context.h"
#include "exec/executor.h"
#include "exec/spill.h"
#include "optimizer/optimizer.h"
#include "sim/noise.h"
#include "sim/virtual_machine.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/result.h"

namespace vdb::exec {

/// Which execution engine a Database runs plans with. Both engines return
/// identical rows and charge identical simulated time — including under
/// LIMIT, where the batch engine runs the capped subtree at the row
/// engine's charge granularity; the differential fuzzer cross-checks them
/// against each other.
enum class ExecMode {
  kRow,    // row-at-a-time materializing Executor
  kBatch,  // vectorized BatchExecutor (the default)
};

/// Result of one executed query.
struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<catalog::Tuple> rows;
  /// Simulated wall-clock inside the VM ("actual" time in paper terms).
  double elapsed_seconds = 0.0;
  double cpu_seconds = 0.0;
  double io_seconds = 0.0;
  /// The optimizer's estimate for the executed plan, in milliseconds.
  double estimated_ms = 0.0;
  /// Physical page reads performed.
  uint64_t physical_reads = 0;
  /// Zone-map scan accounting: heap pages skipped without a fetch vs.
  /// pages a sequential scan actually read (DESIGN.md §16).
  uint64_t pages_pruned = 0;
  uint64_t pages_scanned = 0;
  /// The executed plan, for EXPLAIN-style inspection.
  std::string plan_text;
};

/// One database instance: simulated disk, buffer pool, catalog, optimizer,
/// executor. Attach it to a VirtualMachine to derive its memory
/// configuration and to charge execution time against that VM's resources.
///
/// This is the top-level engine API used by the examples, the calibration
/// process, and the virtualization-design experiments.
class Database {
 public:
  Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  catalog::Catalog* catalog() { return catalog_.get(); }
  storage::BufferPool* buffer_pool() { return pool_.get(); }
  storage::DiskManager* disk() { return disk_.get(); }
  optimizer::Optimizer* optimizer() { return &optimizer_; }
  const DbInstanceConfig& config() const { return config_; }

  /// Re-derives the instance configuration (buffer pool size, work_mem)
  /// from the VM's memory allocation. Call after changing the VM's share.
  Status ApplyVmConfig(const sim::VirtualMachine& vm);

  /// Drops the page cache, so the next query measures cold-cache behavior.
  Status DropCaches();

  /// The spill-file provider handed to every query, or nullptr when the
  /// VDB_SPILL environment variable was "off" at construction time (the
  /// escape hatch that keeps the analytic charge-only spill model). Rows
  /// and charges are identical either way; the provider's live-file count
  /// lets tests assert that aborted queries leak nothing.
  SpillManager* spill_manager() { return spill_.get(); }

  /// Sets the optimizer's what-if parameters (the calibrated P(R)).
  void SetOptimizerParams(const optimizer::OptimizerParams& params) {
    optimizer_.SetParams(params);
  }

  /// Parses, plans, and optimizes `sql` under the current optimizer
  /// parameters without executing it (what-if mode). Returns the physical
  /// plan, whose total_cost_ms is the estimated execution time.
  Result<optimizer::PhysicalNodePtr> Prepare(const std::string& sql);

  /// Side-effect-free what-if preparation: optimizes `sql` under `params`
  /// without touching the database's own optimizer state. Safe to call
  /// concurrently from multiple threads against the same Database (each
  /// call plans with a private optimizer over the read-only catalog), so
  /// the design-search layer can evaluate many candidate allocations in
  /// parallel.
  Result<optimizer::PhysicalNodePtr> Prepare(
      const std::string& sql,
      const optimizer::OptimizerParams& params) const;

  /// Parses, optimizes, and executes `sql` inside `vm`, charging simulated
  /// time to the VM's resources. Fails with the parser/planner error for
  /// malformed SQL, or with ResourceExhausted when an installed noise
  /// model injects a transient fault (see set_noise_model).
  Result<QueryResult> Execute(const std::string& sql,
                              const sim::VirtualMachine& vm);

  /// Executes an already-prepared plan. Same error behavior as Execute.
  Result<QueryResult> ExecutePlan(const optimizer::PhysicalNode& plan,
                                  const sim::VirtualMachine& vm);

  /// Installs a measurement noise / fault-injection model (non-owning;
  /// nullptr uninstalls). While installed, every ExecutePlan either fails
  /// transiently (ResourceExhausted, decided by the model before the plan
  /// runs) or has its measured elapsed_seconds perturbed; cpu_seconds /
  /// io_seconds and all row results stay exact. `noise` must outlive its
  /// installation. Used to test calibration robustness (DESIGN.md §10).
  void set_noise_model(sim::NoiseModel* noise) { noise_ = noise; }
  sim::NoiseModel* noise_model() const { return noise_; }

  /// Selects the execution engine. Defaults to ExecMode::kBatch unless the
  /// VDB_EXEC_MODE environment variable is set to "row" at construction
  /// time (the escape hatch for comparing engines and bisecting
  /// divergences).
  void set_exec_mode(ExecMode mode) { exec_mode_ = mode; }
  ExecMode exec_mode() const { return exec_mode_; }

  /// Per-query execution knobs, applied to every subsequent ExecutePlan.
  void set_query_options(const QueryOptions& options) {
    query_options_ = options;
  }
  const QueryOptions& query_options() const { return query_options_; }

  /// Whether scans may skip pages via zone maps and the optimizer may
  /// cost that skipping (DESIGN.md §16). Defaults on; the VDB_ZONEMAPS
  /// environment variable set to "off" or "0" at construction time is the
  /// escape hatch — rows are bitwise identical either way, only timing
  /// and page counts change. The differential fuzzer flips this between
  /// two executions of the same plan to cross-check pruning.
  void set_zone_maps_enabled(bool enabled) {
    zone_maps_enabled_ = enabled;
    optimizer_.set_zone_maps_enabled(enabled);
  }
  bool zone_maps_enabled() const { return zone_maps_enabled_; }

 private:
  /// Shared front half of Prepare: parse, bind, and rewrite `sql` into a
  /// logical plan. Read-only with respect to the database.
  Result<plan::LogicalNodePtr> PlanLogical(const std::string& sql) const;

  std::unique_ptr<storage::DiskManager> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<catalog::Catalog> catalog_;
  std::unique_ptr<SpillManager> spill_;
  optimizer::Optimizer optimizer_;
  DbInstanceConfig config_;
  sim::NoiseModel* noise_ = nullptr;
  ExecMode exec_mode_ = ExecMode::kBatch;
  bool zone_maps_enabled_ = true;
  QueryOptions query_options_;
};

}  // namespace vdb::exec

#endif  // VDB_EXEC_DATABASE_H_
