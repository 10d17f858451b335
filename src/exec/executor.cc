#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "exec/budget.h"
#include "exec/spill.h"
#include "obs/metrics.h"
#include "storage/page.h"
#include "util/logging.h"

namespace vdb::exec {

namespace {

using catalog::Tuple;
using catalog::Value;
using optimizer::PhysicalNode;
using plan::BoundExpr;
using plan::BoundExprPtr;
using plan::EvaluatesToTrue;
using plan::LogicalJoinType;
using plan::OutputColumn;

// Budget-guard poll period inside long scan/probe loops (power of two
// minus one, used as a mask): frequent enough that an over-budget query
// aborts mid-scan instead of after materializing its input, rare enough
// to stay invisible next to the per-row simulated-time bookkeeping.
constexpr size_t kBudgetPollMask = 4095;

}  // namespace

Result<std::vector<Tuple>> Executor::Run(const PhysicalNode& node,
                                         size_t budget) {
  // Executor instrumentation (DESIGN.md §9): operator invocations and
  // tuples flowing across plan edges. One Add per operator node, never
  // per tuple, so the executor's inner loops stay unmetered.
  static obs::Counter* const operators_executed =
      obs::MetricsRegistry::Global().GetCounter("exec.operators_executed");
  static obs::Counter* const tuples_produced =
      obs::MetricsRegistry::Global().GetCounter("exec.tuples_produced");
  operators_executed->Add();
  // Cooperative budget enforcement (budget.h): every operator entry is a
  // check point, and each materialized result charges the memory budget
  // with a coarse row-width estimate.
  BudgetGuard* const guard = context_->budget_guard();
  if (guard != nullptr) VDB_RETURN_NOT_OK(guard->Check());
  Result<std::vector<Tuple>> rows = RunNode(node, budget);
  if (rows.ok()) {
    tuples_produced->Add(rows->size());
    if (guard != nullptr) {
      if (!rows->empty()) {
        guard->ChargeMemory(static_cast<double>(rows->size()) *
                            ApproxRowBytes(rows->front().size()));
      }
      VDB_RETURN_NOT_OK(guard->Check());
    }
  }
  return rows;
}

Result<std::vector<Tuple>> Executor::RunNode(const PhysicalNode& node,
                                             size_t budget) {
  switch (node.op) {
    case optimizer::PhysOp::kSeqScan:
      return RunSeqScan(static_cast<const optimizer::PhysSeqScan&>(node),
                        budget);
    case optimizer::PhysOp::kIndexScan:
      return RunIndexScan(static_cast<const optimizer::PhysIndexScan&>(node),
                          budget);
    case optimizer::PhysOp::kFilter:
      return RunFilter(static_cast<const optimizer::PhysFilter&>(node),
                       budget);
    case optimizer::PhysOp::kProject:
      return RunProject(static_cast<const optimizer::PhysProject&>(node),
                        budget);
    case optimizer::PhysOp::kSort:
      return RunSort(static_cast<const optimizer::PhysSort&>(node));
    case optimizer::PhysOp::kTopN:
      return RunTopN(static_cast<const optimizer::PhysTopN&>(node));
    case optimizer::PhysOp::kLimit:
      return RunLimit(static_cast<const optimizer::PhysLimit&>(node), budget);
    case optimizer::PhysOp::kHashJoin:
      return RunHashJoin(static_cast<const optimizer::PhysHashJoin&>(node));
    case optimizer::PhysOp::kMergeJoin:
      return RunMergeJoin(static_cast<const optimizer::PhysMergeJoin&>(node));
    case optimizer::PhysOp::kNestedLoopJoin:
      return RunNestedLoopJoin(
          static_cast<const optimizer::PhysNestedLoopJoin&>(node));
    case optimizer::PhysOp::kHashAggregate:
      return RunHashAggregate(
          static_cast<const optimizer::PhysHashAggregate&>(node));
  }
  return Status::Internal("unhandled physical operator");
}

Result<std::vector<Tuple>> Executor::RunSeqScan(
    const optimizer::PhysSeqScan& scan, size_t budget) {
  const CpuWorkModel& cpu = context_->cpu_model();
  std::vector<Tuple> out;
  if (budget == 0) return out;
  BoundExprPtr filter;
  if (scan.filter != nullptr) {
    VDB_ASSIGN_OR_RETURN(filter, ResolveExpr(*scan.filter, scan.output));
  }
  const double filter_ops = filter != nullptr ? filter->OpCount() : 0.0;
  BudgetGuard* const guard = context_->budget_guard();
  const storage::HeapFile& heap = *scan.table->heap;
  // Page-wise scan sharing the zone-map prune decision with the batch
  // engine (HeapFile::ComputePruneBitmap): a pruned page is skipped
  // before the fetch, so it charges no I/O and never touches the buffer
  // pool. With nothing prunable the charge sequence is identical to the
  // historical record-iterator path: one sequential fetch per page, then
  // the per-record CPU charges of that page. Records are read from the
  // pinned frame; the next page's read (or the return) releases the pin,
  // and nothing between pages may call the pool, so each page is
  // unpinned before the next fetch and eviction sees one pin at most.
  std::vector<uint8_t> prune;
  if (context_->zone_maps_enabled() && !scan.prune_spec.empty()) {
    prune = heap.ComputePruneBitmap(scan.prune_spec);
  }
  storage::HeapFile::ScanPagePin pin;
  std::vector<storage::HeapFile::RecordView> records;
  size_t scanned = 0;
  for (size_t page = 0; page < heap.NumPages(); ++page) {
    if (page < prune.size() && prune[page] != 0) {
      context_->AddPagesPruned(1);
      continue;
    }
    VDB_ASSIGN_OR_RETURN(bool more,
                         heap.ReadPageForScanPinned(page, &pin, &records));
    if (!more) break;
    context_->AddPagesScanned(1);
    for (const storage::HeapFile::RecordView& view : records) {
      if (guard != nullptr && (++scanned & kBudgetPollMask) == 0) {
        VDB_RETURN_NOT_OK(guard->Check());
      }
      context_->ChargeCpu(cpu.ops_per_tuple);
      VDB_ASSIGN_OR_RETURN(
          Tuple tuple,
          catalog::DeserializeTuple(view.data, scan.table->schema));
      if (filter != nullptr) {
        context_->ChargeCpu(filter_ops * cpu.ops_per_operator);
        if (!EvaluatesToTrue(*filter, tuple)) continue;
      }
      out.push_back(std::move(tuple));
      if (out.size() >= budget) return out;
    }
  }
  return out;
}

Result<std::vector<Tuple>> Executor::RunIndexScan(
    const optimizer::PhysIndexScan& scan, size_t budget) {
  const CpuWorkModel& cpu = context_->cpu_model();
  std::vector<Tuple> out;
  if (budget == 0) return out;
  BoundExprPtr residual;
  if (scan.residual_filter != nullptr) {
    VDB_ASSIGN_OR_RETURN(residual,
                         ResolveExpr(*scan.residual_filter, scan.output));
  }
  const double residual_ops = residual != nullptr ? residual->OpCount() : 0.0;
  if (scan.has_lower && scan.has_upper && scan.lower > scan.upper) {
    return out;
  }
  auto it = scan.has_lower ? scan.index->tree->SeekGE(scan.lower)
                           : scan.index->tree->Begin();
  BudgetGuard* const guard = context_->budget_guard();
  size_t scanned = 0;
  for (; it.Valid(); it.Next()) {
    if (scan.has_upper && it.key() > scan.upper) break;
    if (guard != nullptr && (++scanned & kBudgetPollMask) == 0) {
      VDB_RETURN_NOT_OK(guard->Check());
    }
    context_->ChargeCpu(cpu.ops_per_index_entry);
    const storage::RecordId rid = storage::RecordId::Unpack(it.value());
    VDB_ASSIGN_OR_RETURN(
        std::string record,
        scan.table->heap->Get(rid, storage::AccessPattern::kRandom));
    context_->ChargeCpu(cpu.ops_per_tuple);
    VDB_ASSIGN_OR_RETURN(
        Tuple tuple, catalog::DeserializeTuple(record, scan.table->schema));
    if (residual != nullptr) {
      context_->ChargeCpu(residual_ops * cpu.ops_per_operator);
      if (!EvaluatesToTrue(*residual, tuple)) continue;
    }
    out.push_back(std::move(tuple));
    if (out.size() >= budget) break;
  }
  return out;
}

Result<std::vector<Tuple>> Executor::RunFilter(
    const optimizer::PhysFilter& filter, size_t budget) {
  const CpuWorkModel& cpu = context_->cpu_model();
  if (budget == 0) return std::vector<Tuple>{};
  VDB_ASSIGN_OR_RETURN(std::vector<Tuple> input,
                       Run(*filter.children[0], kNoBudget));
  VDB_ASSIGN_OR_RETURN(
      BoundExprPtr condition,
      ResolveExpr(*filter.condition, filter.children[0]->output));
  const double ops = condition->OpCount();
  std::vector<Tuple> out;
  for (Tuple& row : input) {
    context_->ChargeCpu(ops * cpu.ops_per_operator);
    if (EvaluatesToTrue(*condition, row)) out.push_back(std::move(row));
    if (out.size() >= budget) break;
  }
  return out;
}

Result<std::vector<Tuple>> Executor::RunProject(
    const optimizer::PhysProject& project, size_t budget) {
  const CpuWorkModel& cpu = context_->cpu_model();
  // Projection is one-to-one, so the row budget passes straight through.
  VDB_ASSIGN_OR_RETURN(std::vector<Tuple> input,
                       Run(*project.children[0], budget));
  std::vector<BoundExprPtr> exprs;
  for (const BoundExprPtr& expr : project.exprs) {
    VDB_ASSIGN_OR_RETURN(BoundExprPtr resolved,
                         ResolveExpr(*expr, project.children[0]->output));
    exprs.push_back(std::move(resolved));
  }
  const double ops = TotalOps(exprs);
  std::vector<Tuple> out;
  out.reserve(input.size());
  for (const Tuple& row : input) {
    context_->ChargeCpu(cpu.ops_per_tuple + ops * cpu.ops_per_operator);
    out.push_back(EvalAll(exprs, row));
  }
  return out;
}

Result<std::vector<Tuple>> Executor::RunSort(const optimizer::PhysSort& sort) {
  const CpuWorkModel& cpu = context_->cpu_model();
  VDB_ASSIGN_OR_RETURN(std::vector<Tuple> input,
                       Run(*sort.children[0], kNoBudget));
  std::vector<BoundExprPtr> keys;
  std::vector<bool> ascending;
  for (const optimizer::PhysSort::Key& key : sort.keys) {
    VDB_ASSIGN_OR_RETURN(BoundExprPtr resolved,
                         ResolveExpr(*key.expr, sort.children[0]->output));
    keys.push_back(std::move(resolved));
    ascending.push_back(key.ascending);
  }
  // Precompute key vectors.
  std::vector<std::vector<Value>> key_rows;
  key_rows.reserve(input.size());
  std::vector<double> row_bytes;
  row_bytes.reserve(input.size());
  double bytes = 0.0;
  for (const Tuple& row : input) {
    key_rows.push_back(EvalAll(keys, row));
    row_bytes.push_back(ApproxTupleBytes(row));
    bytes += row_bytes.back();
  }
  // Spill if the sort exceeds work_mem (one write + one read pass).
  const bool spills =
      bytes > static_cast<double>(context_->work_mem_bytes());
  if (spills) {
    const double pages = PagesFor(bytes);
    context_->ChargeSpillWrite(pages);
    context_->ChargeSpillRead(pages);
  }
  const double n = static_cast<double>(input.size());
  context_->ChargeCpu(2.0 * n * std::log2(std::max(2.0, n)) *
                      cpu.ops_per_comparison);
  context_->ChargeCpu(n * cpu.ops_per_tuple);  // materialization

  // With a spill provider attached, an over-work_mem sort actually runs
  // as an external merge sort; the merge's input-position tie-break
  // reproduces std::stable_sort's permutation exactly (DESIGN.md §14).
  if (spills && context_->spill_manager() != nullptr) {
    return ExternalMergeSort(context_->spill_manager(), std::move(input),
                             key_rows, ascending, row_bytes,
                             context_->work_mem_bytes());
  }

  std::vector<size_t> order(input.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      const int cmp =
          CompareForSort(key_rows[a][k], key_rows[b][k], ascending[k]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  std::vector<Tuple> out;
  out.reserve(input.size());
  for (size_t index : order) out.push_back(std::move(input[index]));
  return out;
}

Result<std::vector<Tuple>> Executor::RunTopN(
    const optimizer::PhysTopN& top_n) {
  const CpuWorkModel& cpu = context_->cpu_model();
  const size_t k =
      top_n.limit <= 0 ? 0 : static_cast<size_t>(top_n.limit);
  // LIMIT 0: nothing can qualify, so skip the child entirely.
  if (k == 0) return std::vector<Tuple>{};
  VDB_ASSIGN_OR_RETURN(std::vector<Tuple> input,
                       Run(*top_n.children[0], kNoBudget));
  std::vector<BoundExprPtr> keys;
  std::vector<bool> ascending;
  for (const optimizer::PhysSort::Key& key : top_n.keys) {
    VDB_ASSIGN_OR_RETURN(BoundExprPtr resolved,
                         ResolveExpr(*key.expr, top_n.children[0]->output));
    keys.push_back(std::move(resolved));
    ascending.push_back(key.ascending);
  }
  // (key vector, input index) entries; `worse` orders the heap so that
  // the WORST retained row is at the front, ready for replacement.
  struct Entry {
    std::vector<Value> key;
    size_t index;
  };
  auto worse = [&](const Entry& a, const Entry& b) {
    for (size_t i = 0; i < ascending.size(); ++i) {
      const int cmp = CompareForSort(a.key[i], b.key[i], ascending[i]);
      if (cmp != 0) return cmp < 0;  // "less" = better; heap keeps worst up
    }
    return a.index < b.index;  // stable tie-break: later rows are "worse"
  };
  std::vector<Entry> heap;
  heap.reserve(k + 1);
  const double n = static_cast<double>(input.size());
  context_->ChargeCpu(
      2.0 * n *
      std::log2(std::max<double>(
          2.0, static_cast<double>(std::max<size_t>(k, 2)))) *
      cpu.ops_per_comparison);
  for (size_t i = 0; i < input.size(); ++i) {
    Entry entry{EvalAll(keys, input[i]), i};
    if (heap.size() < k) {
      heap.push_back(std::move(entry));
      std::push_heap(heap.begin(), heap.end(), worse);
    } else if (worse(entry, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), worse);
      heap.back() = std::move(entry);
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), worse);
  context_->ChargeCpu(static_cast<double>(heap.size()) * cpu.ops_per_tuple);
  std::vector<Tuple> out;
  out.reserve(heap.size());
  for (const Entry& entry : heap) {
    out.push_back(std::move(input[entry.index]));
  }
  return out;
}

Result<std::vector<Tuple>> Executor::RunLimit(
    const optimizer::PhysLimit& limit, size_t budget) {
  const size_t cap =
      limit.limit <= 0 ? 0 : static_cast<size_t>(limit.limit);
  const size_t child_budget = std::min(budget, cap);
  // LIMIT 0 (or a zero budget from above): skip the child entirely.
  if (child_budget == 0) return std::vector<Tuple>{};
  VDB_ASSIGN_OR_RETURN(std::vector<Tuple> input,
                       Run(*limit.children[0], child_budget));
  if (input.size() > child_budget) input.resize(child_budget);
  return input;
}

Result<std::vector<Tuple>> Executor::RunHashJoin(
    const optimizer::PhysHashJoin& join) {
  const CpuWorkModel& cpu = context_->cpu_model();
  const PhysicalNode& left_child = *join.children[0];
  const PhysicalNode& right_child = *join.children[1];
  VDB_ASSIGN_OR_RETURN(std::vector<Tuple> left_rows,
                       Run(left_child, kNoBudget));
  VDB_ASSIGN_OR_RETURN(std::vector<Tuple> right_rows,
                       Run(right_child, kNoBudget));

  std::vector<BoundExprPtr> left_keys;
  std::vector<BoundExprPtr> right_keys;
  for (const BoundExprPtr& key : join.left_keys) {
    VDB_ASSIGN_OR_RETURN(BoundExprPtr resolved,
                         ResolveExpr(*key, left_child.output));
    left_keys.push_back(std::move(resolved));
  }
  for (const BoundExprPtr& key : join.right_keys) {
    VDB_ASSIGN_OR_RETURN(BoundExprPtr resolved,
                         ResolveExpr(*key, right_child.output));
    right_keys.push_back(std::move(resolved));
  }
  BoundExprPtr residual;
  std::vector<OutputColumn> combined = left_child.output;
  combined.insert(combined.end(), right_child.output.begin(),
                  right_child.output.end());
  if (join.residual != nullptr) {
    VDB_ASSIGN_OR_RETURN(residual, ResolveExpr(*join.residual, combined));
  }
  const double residual_ops = residual != nullptr ? residual->OpCount() : 0.0;

  // Single-column keys skip EvalAll and borrow the value from the row.
  const plan::ColumnExpr* left_col = SingleColumnKey(left_keys);
  const plan::ColumnExpr* right_col = SingleColumnKey(right_keys);
  const size_t num_keys = right_keys.size();

  // With a spill provider attached, an over-work_mem build side runs as a
  // Grace partitioned join. The decision pre-scans build bytes in the
  // same accumulation order as the build loop below, so the trigger
  // agrees bit-for-bit with the analytic model; GraceHashJoin then
  // replays this function's exact charge sequence (DESIGN.md §14).
  if (context_->spill_manager() != nullptr) {
    double scan_bytes = 0.0;
    for (const Tuple& row : right_rows) scan_bytes += ApproxTupleBytes(row);
    if (scan_bytes > static_cast<double>(context_->work_mem_bytes())) {
      // Build-side charges, exactly as the in-memory build loop.
      std::vector<std::vector<Value>> grace_right(right_rows.size());
      for (uint32_t i = 0; i < right_rows.size(); ++i) {
        context_->ChargeCpu(cpu.ops_per_hash + cpu.ops_per_tuple);
        grace_right[i] = right_col != nullptr
                             ? std::vector<Value>{right_rows[i]
                                                      [right_col->slot()]}
                             : EvalAll(right_keys, right_rows[i]);
      }
      double probe_bytes = 0.0;
      for (const Tuple& row : left_rows) {
        probe_bytes += ApproxTupleBytes(row);
      }
      const double pages = PagesFor(scan_bytes) + PagesFor(probe_bytes);
      context_->ChargeSpillWrite(pages);
      context_->ChargeSpillRead(pages);

      std::vector<std::vector<Value>> grace_left(left_rows.size());
      for (uint32_t i = 0; i < left_rows.size(); ++i) {
        grace_left[i] =
            left_col != nullptr
                ? std::vector<Value>{left_rows[i][left_col->slot()]}
                : EvalAll(left_keys, left_rows[i]);
      }
      GraceJoinSpec spec;
      spec.join_type = join.join_type;
      spec.residual = residual.get();
      spec.residual_ops = residual_ops;
      spec.num_keys = num_keys;
      spec.left_rows = &left_rows;
      spec.left_keys = &grace_left;
      spec.right_rows = &right_rows;
      spec.right_keys = &grace_right;
      spec.poll_budget = true;
      VDB_ASSIGN_OR_RETURN(
          std::vector<GraceEmit> emits,
          GraceHashJoin(context_, context_->spill_manager(), spec));
      std::vector<Tuple> out;
      out.reserve(emits.size());
      for (const GraceEmit& emit : emits) {
        if (emit.right != kGraceNoRight) {
          out.push_back(
              ConcatRows(left_rows[emit.left], right_rows[emit.right]));
        } else if (join.join_type == LogicalJoinType::kLeft) {
          out.push_back(ConcatRows(left_rows[emit.left],
                                   NullsFor(right_child.output)));
        } else {
          out.push_back(left_rows[emit.left]);
        }
      }
      return out;
    }
  }

  // Build side: right input. Buckets map the key hash to build-row
  // indices; key equality is re-checked at probe time, so hash collisions
  // behave exactly like the exact-key map this replaces.
  std::unordered_map<size_t, std::vector<uint32_t>> table;
  table.reserve(EstimateReserve(right_child.estimated_rows));
  std::vector<std::vector<Value>> build_keys;
  if (right_col == nullptr) build_keys.resize(right_rows.size());
  double build_bytes = 0.0;
  for (uint32_t i = 0; i < right_rows.size(); ++i) {
    const Tuple& row = right_rows[i];
    context_->ChargeCpu(cpu.ops_per_hash + cpu.ops_per_tuple);
    build_bytes += ApproxTupleBytes(row);
    if (right_col != nullptr) {
      const Value& v = row[right_col->slot()];
      if (v.is_null()) continue;  // NULL keys never join
      table[CombineHash(kHashSeed, v.Hash())].push_back(i);
    } else {
      std::vector<Value> key = EvalAll(right_keys, row);
      bool has_null = false;
      for (const Value& v : key) has_null = has_null || v.is_null();
      if (has_null) continue;
      table[HashValues(key.data(), key.size())].push_back(i);
      build_keys[i] = std::move(key);
    }
  }
  if (build_bytes > static_cast<double>(context_->work_mem_bytes())) {
    // Grace hash join: both sides spilled and re-read once.
    double probe_bytes = 0.0;
    for (const Tuple& row : left_rows) probe_bytes += ApproxTupleBytes(row);
    const double pages = PagesFor(build_bytes) + PagesFor(probe_bytes);
    context_->ChargeSpillWrite(pages);
    context_->ChargeSpillRead(pages);
  }

  std::vector<Tuple> out;
  std::vector<Value> probe_storage;
  BudgetGuard* const guard = context_->budget_guard();
  size_t probed = 0;
  for (const Tuple& left_row : left_rows) {
    if (guard != nullptr && (++probed & kBudgetPollMask) == 0) {
      VDB_RETURN_NOT_OK(guard->Check());
    }
    context_->ChargeCpu(cpu.ops_per_hash);
    const Value* probe = nullptr;
    if (left_col != nullptr) {
      probe = &left_row[left_col->slot()];
    } else {
      probe_storage = EvalAll(left_keys, left_row);
      probe = probe_storage.data();
    }
    bool has_null = false;
    for (size_t i = 0; i < num_keys; ++i) {
      has_null = has_null || probe[i].is_null();
    }
    bool matched = false;
    if (!has_null) {
      auto it = table.find(HashValues(probe, num_keys));
      if (it != table.end()) {
        for (uint32_t ri : it->second) {
          const Tuple& right_row = right_rows[ri];
          const Value* build = right_col != nullptr
                                   ? &right_row[right_col->slot()]
                                   : build_keys[ri].data();
          // Equality before any charge: collisions stay free.
          if (!KeysEqual(probe, build, num_keys)) continue;
          context_->ChargeCpu(cpu.ops_per_comparison +
                              residual_ops * cpu.ops_per_operator);
          bool passes = true;
          Tuple combined_row;
          if (residual != nullptr ||
              join.join_type == LogicalJoinType::kInner ||
              join.join_type == LogicalJoinType::kLeft) {
            combined_row = ConcatRows(left_row, right_row);
          }
          if (residual != nullptr) {
            passes = EvaluatesToTrue(*residual, combined_row);
          }
          if (!passes) continue;
          matched = true;
          if (join.join_type == LogicalJoinType::kInner ||
              join.join_type == LogicalJoinType::kLeft) {
            context_->ChargeCpu(cpu.ops_per_tuple);
            out.push_back(std::move(combined_row));
          } else if (join.join_type == LogicalJoinType::kSemi) {
            break;  // one match is enough
          } else if (join.join_type == LogicalJoinType::kAnti) {
            break;
          }
        }
      }
    }
    switch (join.join_type) {
      case LogicalJoinType::kLeft:
        if (!matched) {
          context_->ChargeCpu(cpu.ops_per_tuple);
          out.push_back(ConcatRows(left_row, NullsFor(right_child.output)));
        }
        break;
      case LogicalJoinType::kSemi:
        if (matched) {
          context_->ChargeCpu(cpu.ops_per_tuple);
          out.push_back(left_row);
        }
        break;
      case LogicalJoinType::kAnti:
        if (!matched) {
          context_->ChargeCpu(cpu.ops_per_tuple);
          out.push_back(left_row);
        }
        break;
      default:
        break;
    }
  }
  return out;
}

Result<std::vector<Tuple>> Executor::RunMergeJoin(
    const optimizer::PhysMergeJoin& join) {
  const PhysicalNode& left_child = *join.children[0];
  const PhysicalNode& right_child = *join.children[1];
  VDB_ASSIGN_OR_RETURN(std::vector<Tuple> left_rows,
                       Run(left_child, kNoBudget));
  VDB_ASSIGN_OR_RETURN(std::vector<Tuple> right_rows,
                       Run(right_child, kNoBudget));
  // Children are Sort nodes planted by the optimizer, so inputs arrive in
  // key order; re-evaluate keys for the merge.
  VDB_ASSIGN_OR_RETURN(BoundExprPtr left_key,
                       ResolveExpr(*join.left_key, left_child.output));
  VDB_ASSIGN_OR_RETURN(BoundExprPtr right_key,
                       ResolveExpr(*join.right_key, right_child.output));
  BoundExprPtr residual;
  std::vector<OutputColumn> combined = left_child.output;
  combined.insert(combined.end(), right_child.output.begin(),
                  right_child.output.end());
  if (join.residual != nullptr) {
    VDB_ASSIGN_OR_RETURN(residual, ResolveExpr(*join.residual, combined));
  }
  return MergeJoinRows(context_, left_rows, right_rows, *left_key, *right_key,
                       residual.get());
}

Result<std::vector<Tuple>> Executor::RunNestedLoopJoin(
    const optimizer::PhysNestedLoopJoin& join) {
  const PhysicalNode& left_child = *join.children[0];
  const PhysicalNode& right_child = *join.children[1];
  VDB_ASSIGN_OR_RETURN(std::vector<Tuple> left_rows,
                       Run(left_child, kNoBudget));
  VDB_ASSIGN_OR_RETURN(std::vector<Tuple> right_rows,
                       Run(right_child, kNoBudget));

  BoundExprPtr condition;
  std::vector<OutputColumn> combined = left_child.output;
  combined.insert(combined.end(), right_child.output.begin(),
                  right_child.output.end());
  if (join.condition != nullptr) {
    VDB_ASSIGN_OR_RETURN(condition, ResolveExpr(*join.condition, combined));
  }
  return NestedLoopJoinRows(context_, join.join_type, right_child.output,
                            left_rows, right_rows, condition.get());
}

Result<std::vector<Tuple>> Executor::RunHashAggregate(
    const optimizer::PhysHashAggregate& aggregate) {
  const CpuWorkModel& cpu = context_->cpu_model();
  const PhysicalNode& child = *aggregate.children[0];
  VDB_ASSIGN_OR_RETURN(std::vector<Tuple> input, Run(child, kNoBudget));

  std::vector<BoundExprPtr> group_exprs;
  for (const BoundExprPtr& expr : aggregate.group_exprs) {
    VDB_ASSIGN_OR_RETURN(BoundExprPtr resolved,
                         ResolveExpr(*expr, child.output));
    group_exprs.push_back(std::move(resolved));
  }
  std::vector<plan::AggSpec> aggs;
  for (const plan::AggSpec& spec : aggregate.aggs) {
    plan::AggSpec resolved = spec.Clone();
    if (resolved.arg != nullptr) {
      VDB_RETURN_NOT_OK(
          resolved.arg->ResolveSlots(plan::MakeLayout(child.output)));
    }
    aggs.push_back(std::move(resolved));
  }
  const double group_ops = TotalOps(group_exprs);
  double agg_ops = 0.0;
  for (const plan::AggSpec& spec : aggs) {
    agg_ops += 1.0 + (spec.arg != nullptr ? spec.arg->OpCount() : 0);
  }

  // Single-column group keys borrow the value straight from the row.
  const plan::ColumnExpr* group_col = SingleColumnKey(group_exprs);

  // Groups live in insertion order (= output order); buckets map the key
  // hash to group indices and collisions are resolved by KeysEqual.
  struct Group {
    ValueKey key;
    std::vector<AggState> states;
  };
  std::vector<Group> groups;
  std::unordered_map<size_t, std::vector<uint32_t>> buckets;
  const size_t estimate = EstimateReserve(aggregate.estimated_rows);
  groups.reserve(estimate);
  buckets.reserve(estimate);
  std::vector<Value> key_storage;
  BudgetGuard* const guard = context_->budget_guard();
  size_t consumed = 0;
  for (const Tuple& row : input) {
    if (guard != nullptr && (++consumed & kBudgetPollMask) == 0) {
      VDB_RETURN_NOT_OK(guard->Check());
    }
    context_->ChargeCpu(cpu.ops_per_tuple + cpu.ops_per_hash +
                        (group_ops + agg_ops) * cpu.ops_per_operator);
    const Value* key = nullptr;
    size_t num_keys = group_exprs.size();
    if (group_col != nullptr) {
      key = &row[group_col->slot()];
    } else {
      key_storage = EvalAll(group_exprs, row);
      key = key_storage.data();
    }
    std::vector<uint32_t>& bucket = buckets[HashValues(key, num_keys)];
    Group* group = nullptr;
    for (uint32_t gi : bucket) {
      if (KeysEqual(groups[gi].key.values.data(), key, num_keys)) {
        group = &groups[gi];
        break;
      }
    }
    if (group == nullptr) {
      bucket.push_back(static_cast<uint32_t>(groups.size()));
      groups.push_back(Group{ValueKey{std::vector<Value>(key, key + num_keys)},
                             std::vector<AggState>(aggs.size())});
      group = &groups.back();
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      const plan::AggSpec& spec = aggs[a];
      Value v;
      if (spec.arg != nullptr) v = spec.arg->Evaluate(row);
      group->states[a].Update(spec, v);
    }
  }

  // Memory-pressure model (DESIGN.md §14): the aggregation spills when
  // its hash state exceeds work_mem. Group count only grows, so this
  // final-count check matches a mid-stream check exactly.
  AggSpillStats spill_stats;
  spill_stats.groups = groups.size();
  spill_stats.input_rows = input.size();
  spill_stats.num_keys = group_exprs.size();
  spill_stats.num_aggs = aggs.size();
  spill_stats.input_cols = child.output.size();
  const bool agg_spills =
      AggSpillTriggered(spill_stats, context_->work_mem_bytes());
  if (agg_spills) ChargeAggSpill(context_, spill_stats);

  // With a spill provider, actually re-aggregate through hash partitions
  // on disk. Each group lives in one partition and sees its updates in
  // global row order, so states (and, after the first-appearance sort,
  // group order) are bit-identical to the in-memory table above.
  if (agg_spills && context_->spill_manager() != nullptr) {
    std::vector<std::vector<Value>> ext_keys;
    std::vector<std::vector<Value>> ext_args;
    ext_keys.reserve(input.size());
    ext_args.reserve(input.size());
    for (const Tuple& row : input) {
      ext_keys.push_back(group_col != nullptr
                             ? std::vector<Value>{row[group_col->slot()]}
                             : EvalAll(group_exprs, row));
      std::vector<Value> args;
      args.reserve(aggs.size());
      for (const plan::AggSpec& spec : aggs) {
        args.push_back(spec.arg != nullptr ? spec.arg->Evaluate(row)
                                           : Value());
      }
      ext_args.push_back(std::move(args));
    }
    VDB_ASSIGN_OR_RETURN(std::vector<ExternalAggGroup> external,
                         ExternalHashAggregate(context_->spill_manager(),
                                               aggs, ext_keys, ext_args));
    std::vector<Tuple> spilled_out;
    spilled_out.reserve(external.size());
    for (const ExternalAggGroup& group : external) {
      context_->ChargeCpu(cpu.ops_per_tuple);
      Tuple row = group.key;
      for (size_t a = 0; a < aggs.size(); ++a) {
        row.push_back(group.states[a].Finalize(aggs[a]));
      }
      spilled_out.push_back(std::move(row));
    }
    return spilled_out;
  }

  std::vector<Tuple> out;
  if (groups.empty() && group_exprs.empty()) {
    // Global aggregate over zero rows yields one row of initial values.
    Tuple row;
    for (const plan::AggSpec& spec : aggs) {
      row.push_back(AggState().Finalize(spec));
    }
    context_->ChargeCpu(cpu.ops_per_tuple);
    out.push_back(std::move(row));
    return out;
  }
  out.reserve(groups.size());
  for (const Group& group : groups) {
    context_->ChargeCpu(cpu.ops_per_tuple);
    Tuple row = group.key.values;
    for (size_t a = 0; a < aggs.size(); ++a) {
      row.push_back(group.states[a].Finalize(aggs[a]));
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace vdb::exec
