// Per-query resource budgets and their cooperative enforcement guard.
// Both engines poll the guard at operator boundaries and inside long
// loops, so an over-budget query aborts between charge events and
// unwinds through the normal Status path (spill files and buffer-pool
// pins release via RAII).

#ifndef VDB_EXEC_BUDGET_H_
#define VDB_EXEC_BUDGET_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace vdb::exec {

/// Hard per-query resource limits (DESIGN.md §13). A zero field means
/// unlimited on that axis. Simulated limits (CPU / elapsed) are expressed
/// in the VM's simulated seconds, so the same budget bites sooner on a VM
/// with a smaller share — exactly the multi-tenant admission story the
/// paper's design advisor allocates shares for. `max_host_seconds` guards
/// real wall-clock on the serving host, independent of the simulation.
struct QueryBudget {
  /// Simulated CPU seconds charged to the VM.
  double max_cpu_seconds = 0.0;
  /// Simulated wall-clock inside the VM (CPU + I/O).
  double max_elapsed_seconds = 0.0;
  /// Cumulative bytes of materialized intermediate rows, coarsely
  /// estimated (row count x schema-width estimate); an allocation budget,
  /// not a high-water mark.
  double max_memory_bytes = 0.0;
  /// Real host wall-clock seconds since the guard was armed.
  double max_host_seconds = 0.0;

  bool Unlimited() const {
    return max_cpu_seconds <= 0.0 && max_elapsed_seconds <= 0.0 &&
           max_memory_bytes <= 0.0 && max_host_seconds <= 0.0;
  }
};

class ExecutionContext;

/// Cooperative budget enforcement for one query. The executors call
/// Check() at batch / operator boundaries (and every few
/// thousand rows inside long scan loops); the first violated axis turns
/// into a typed StatusCode::kBudgetExceeded error that unwinds the
/// executor like any other failure — the ExecutionContext's RAII listener
/// detach makes the abort leak-free by construction.
///
/// Not thread-safe: one guard belongs to one query, which runs on one
/// thread.
class BudgetGuard {
 public:
  BudgetGuard(const QueryBudget& budget, const ExecutionContext* context)
      : budget_(budget),
        context_(context),
        start_(std::chrono::steady_clock::now()) {}

  BudgetGuard(const BudgetGuard&) = delete;
  BudgetGuard& operator=(const BudgetGuard&) = delete;

  /// OK while every budgeted axis is under its limit, else a
  /// kBudgetExceeded status naming the axis that tripped.
  Status Check() const;

  /// Records `bytes` of materialized intermediate-row memory.
  void ChargeMemory(double bytes) { memory_bytes_ += bytes; }
  double memory_bytes() const { return memory_bytes_; }

  const QueryBudget& budget() const { return budget_; }

 private:
  QueryBudget budget_;
  const ExecutionContext* context_;
  std::chrono::steady_clock::time_point start_;
  double memory_bytes_ = 0.0;
};

/// Coarse per-row memory estimate used by both engines when charging a
/// BudgetGuard: fixed row overhead plus a per-column width. Deliberately
/// cheap (no per-value walk) — the budget is a guard rail, not an
/// allocator.
inline double ApproxRowBytes(size_t num_columns) {
  return 64.0 + 16.0 * static_cast<double>(num_columns);
}

}  // namespace vdb::exec

#endif  // VDB_EXEC_BUDGET_H_
