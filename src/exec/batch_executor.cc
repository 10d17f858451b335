#include "exec/batch_executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "exec/executor.h"
#include "exec/spill.h"
#include "obs/metrics.h"
#include "storage/btree.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "util/logging.h"

namespace vdb::exec {

namespace {

using catalog::Batch;
using catalog::Tuple;
using catalog::TypeId;
using catalog::Value;
using catalog::ValueVector;
using optimizer::PhysicalNode;
using plan::BoundExpr;
using plan::BoundExprPtr;
using plan::EvaluatesToTrue;
using plan::LogicalJoinType;
using plan::OutputColumn;

std::vector<TypeId> DeclaredTypes(const std::vector<OutputColumn>& columns) {
  std::vector<TypeId> types;
  types.reserve(columns.size());
  for (const OutputColumn& column : columns) types.push_back(column.type);
  return types;
}

std::vector<TypeId> ColumnTypes(const Batch& batch) {
  std::vector<TypeId> types;
  types.reserve(batch.columns.size());
  for (const ValueVector& column : batch.columns) {
    types.push_back(column.type());
  }
  return types;
}

/// Byte estimate of one physical row; must agree exactly with
/// ApproxTupleBytes on the boxed row so both engines make identical spill
/// decisions (and charge identical spill I/O).
double ApproxBatchRowBytes(const Batch& batch, size_t row) {
  double bytes = 8.0;  // row header
  for (const ValueVector& column : batch.columns) {
    if (!column.IsNull(row) && column.type() == TypeId::kString) {
      bytes += 13.0 + static_cast<double>(column.GetString(row).size());
    } else {
      bytes += 9.0;
    }
  }
  return bytes;
}

/// CompareForSort over vector rows (NULLS LAST on ascending keys).
int CompareVectorsForSort(const ValueVector& a, size_t i,
                          const ValueVector& b, size_t j, bool ascending) {
  const bool a_null = a.IsNull(i);
  const bool b_null = b.IsNull(j);
  if (a_null && b_null) return 0;
  if (a_null) return ascending ? 1 : -1;
  if (b_null) return ascending ? -1 : 1;
  const int cmp = catalog::CompareAt(a, i, b, j);
  return ascending ? cmp : -cmp;
}

/// CompareForSort of vector row `i` against a boxed value.
int CompareVectorWithValue(const ValueVector& a, size_t i, const Value& v,
                           bool ascending) {
  const bool a_null = a.IsNull(i);
  const bool b_null = v.is_null();
  if (a_null && b_null) return 0;
  if (a_null) return ascending ? 1 : -1;
  if (b_null) return ascending ? -1 : 1;
  const int cmp = catalog::CompareWithValue(a, i, v);
  return ascending ? cmp : -cmp;
}

/// Re-batches materialized row-major output (sort/join/aggregate results)
/// into column-major batches. Column vector types are inferred from the
/// values actually present — any non-null double makes the column a double
/// channel (mixed int/double arises from e.g. SUM), otherwise the first
/// non-null value's type wins, and all-null columns keep the declared type
/// — so the re-boxed values match what the row engine would have produced.
class RowsEmitter {
 public:
  void SetRows(std::vector<Tuple> rows, const std::vector<TypeId>& declared) {
    rows_ = std::move(rows);
    offset_ = 0;
    types_ = declared;
    for (size_t c = 0; c < types_.size(); ++c) {
      bool has_first = false;
      for (const Tuple& row : rows_) {
        const Value& v = row[c];
        if (v.is_null()) continue;
        if (!has_first) {
          types_[c] = v.type();
          has_first = true;
        }
        if (v.type() == TypeId::kDouble) {
          types_[c] = TypeId::kDouble;
          break;
        }
      }
    }
  }

  bool Emit(Batch* out) {
    if (offset_ >= rows_.size()) return false;
    const size_t m = std::min(Batch::kDefaultRows, rows_.size() - offset_);
    out->Reset(types_, m);
    for (size_t i = 0; i < m; ++i) {
      const Tuple& row = rows_[offset_ + i];
      for (size_t c = 0; c < types_.size(); ++c) {
        out->columns[c].SetValue(i, row[c]);
      }
    }
    out->SetRowCount(m);
    offset_ += m;
    return true;
  }

 private:
  std::vector<Tuple> rows_;
  std::vector<TypeId> types_;
  size_t offset_ = 0;
};

Result<std::vector<Tuple>> DrainToTuples(BatchOp* op) {
  std::vector<Tuple> rows;
  Batch batch;
  while (true) {
    VDB_ASSIGN_OR_RETURN(bool more, op->Next(&batch));
    if (!more) break;
    for (uint32_t row : batch.sel) rows.push_back(batch.RowAsTuple(row));
  }
  return rows;
}

Status DrainBatches(BatchOp* op, std::vector<Batch>* out) {
  Batch batch;
  while (true) {
    VDB_ASSIGN_OR_RETURN(bool more, op->Next(&batch));
    if (!more) return Status::OK();
    out->push_back(std::move(batch));
    batch = Batch{};
  }
}

/// Runs a budget-capped subtree on the row engine and re-batches its
/// rows. LIMIT stops at a data-dependent row mid-batch, so exact charge
/// parity with the row engine is only reachable at row granularity: the
/// subtree beneath a LIMIT executes (and charges) exactly as the row
/// engine would, which makes LIMIT queries charge identically on both
/// engines bit for bit. LIMIT 0 never pulls this operator, matching the
/// row engine's child skip.
class BudgetedExecOp final : public BatchOp {
 public:
  BudgetedExecOp(ExecutionContext* context, const PhysicalNode& node,
                 size_t budget)
      : BatchOp("row_budget"),
        context_(context),
        node_(node),
        budget_(budget) {}

 protected:
  Result<bool> NextImpl(Batch* out) override {
    if (!built_) {
      built_ = true;
      Executor executor(context_);
      VDB_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                           executor.Run(node_, budget_));
      emitter_.SetRows(std::move(rows), DeclaredTypes(node_.output));
    }
    return emitter_.Emit(out);
  }

 private:
  ExecutionContext* context_;
  const PhysicalNode& node_;
  const size_t budget_;
  bool built_ = false;
  RowsEmitter emitter_;
};

// ---------------------------------------------------------------------------
// Leaf operators

class SeqScanOp final : public BatchOp {
 public:
  SeqScanOp(ExecutionContext* context, const optimizer::PhysSeqScan& scan,
            BoundExprPtr filter, std::vector<uint8_t> wanted)
      : BatchOp("seq_scan"),
        context_(context),
        scan_(scan),
        filter_(std::move(filter)),
        filter_ops_(filter_ != nullptr ? filter_->OpCount() : 0.0),
        wanted_(std::move(wanted)) {
    for (const catalog::Column& column : scan.table->schema.columns()) {
      types_.push_back(column.type);
    }
    if (context->zone_maps_enabled() && !scan.prune_spec.empty()) {
      prune_ = scan.table->heap->ComputePruneBitmap(scan.prune_spec);
    }
  }

 protected:
  Result<bool> NextImpl(Batch* out) override {
    const CpuWorkModel& cpu = context_->cpu_model();
    out->Reset(types_, Batch::kDefaultRows);
    size_t filled = 0;
    while (filled < Batch::kDefaultRows && !done_) {
      if (cursor_ >= records_.size()) {
        // Zone-map skip: step over provably-empty pages before fetching,
        // the same bitmap the row engine uses.
        while (page_index_ < prune_.size() && prune_[page_index_] != 0) {
          context_->AddPagesPruned(1);
          ++page_index_;
        }
        VDB_ASSIGN_OR_RETURN(bool more,
                             scan_.table->heap->ReadPageForScanPinned(
                                 page_index_, &pin_, &records_));
        ++page_index_;
        cursor_ = 0;
        if (!more) {
          done_ = true;
        } else {
          context_->AddPagesScanned(1);
        }
        continue;
      }
      const size_t take =
          std::min(Batch::kDefaultRows - filled, records_.size() - cursor_);
      // Deserialize straight out of the pinned page, striding over the
      // RecordView array — no page copy, no repacked view array.
      VDB_RETURN_NOT_OK(catalog::DeserializeRecordsInto(
          &records_[cursor_].data, sizeof(storage::HeapFile::RecordView),
          take, scan_.table->schema, out, filled,
          wanted_.empty() ? nullptr : &wanted_));
      cursor_ += take;
      filled += take;
    }
    if (filled == 0 && done_) return false;
    rows_in_ += filled;
    context_->ChargeCpu(static_cast<double>(filled) * cpu.ops_per_tuple);
    out->SetRowCount(filled);
    if (filter_ != nullptr) {
      context_->ChargeCpu(static_cast<double>(filled) * filter_ops_ *
                          cpu.ops_per_operator);
      filter_->FilterBatch(out);
    }
    return true;
  }

 private:
  ExecutionContext* context_;
  const optimizer::PhysSeqScan& scan_;
  BoundExprPtr filter_;
  const double filter_ops_;
  /// Lazy-materialization mask by schema position; empty = all columns.
  std::vector<uint8_t> wanted_;
  std::vector<TypeId> types_;
  /// Per-page zone-map prune bitmap (empty when pruning is off).
  std::vector<uint8_t> prune_;
  size_t page_index_ = 0;
  size_t cursor_ = 0;
  storage::HeapFile::ScanPagePin pin_;
  std::vector<storage::HeapFile::RecordView> records_;
  bool done_ = false;
};

class IndexScanOp final : public BatchOp {
 public:
  IndexScanOp(ExecutionContext* context, const optimizer::PhysIndexScan& scan,
              BoundExprPtr residual, std::vector<uint8_t> wanted)
      : BatchOp("index_scan"),
        context_(context),
        scan_(scan),
        residual_(std::move(residual)),
        residual_ops_(residual_ != nullptr ? residual_->OpCount() : 0.0),
        wanted_(std::move(wanted)) {
    for (const catalog::Column& column : scan.table->schema.columns()) {
      types_.push_back(column.type);
    }
  }

 protected:
  Result<bool> NextImpl(Batch* out) override {
    const CpuWorkModel& cpu = context_->cpu_model();
    if (!started_) {
      started_ = true;
      if (!(scan_.has_lower && scan_.has_upper && scan_.lower > scan_.upper)) {
        it_.emplace(scan_.has_lower ? scan_.index->tree->SeekGE(scan_.lower)
                                    : scan_.index->tree->Begin());
        if (!it_->Valid()) it_.reset();
      }
    }
    if (!it_.has_value()) return false;
    out->Reset(types_, Batch::kDefaultRows);
    size_t filled = 0;
    while (filled < Batch::kDefaultRows && it_.has_value()) {
      if (scan_.has_upper && it_->key() > scan_.upper) {
        it_.reset();
        break;
      }
      context_->ChargeCpu(cpu.ops_per_index_entry);
      const storage::RecordId rid = storage::RecordId::Unpack(it_->value());
      VDB_ASSIGN_OR_RETURN(
          std::string record,
          scan_.table->heap->Get(rid, storage::AccessPattern::kRandom));
      context_->ChargeCpu(cpu.ops_per_tuple);
      VDB_RETURN_NOT_OK(catalog::DeserializeTupleInto(
          record, scan_.table->schema, out, filled,
          wanted_.empty() ? nullptr : &wanted_));
      ++filled;
      it_->Next();
      if (!it_->Valid()) it_.reset();
    }
    if (filled == 0) return false;
    rows_in_ += filled;
    out->SetRowCount(filled);
    if (residual_ != nullptr) {
      context_->ChargeCpu(static_cast<double>(filled) * residual_ops_ *
                          cpu.ops_per_operator);
      residual_->FilterBatch(out);
    }
    return true;
  }

 private:
  ExecutionContext* context_;
  const optimizer::PhysIndexScan& scan_;
  BoundExprPtr residual_;
  const double residual_ops_;
  /// Lazy-materialization mask by schema position; empty = all columns.
  std::vector<uint8_t> wanted_;
  std::vector<TypeId> types_;
  bool started_ = false;
  std::optional<storage::BPlusTree::Iterator> it_;
};

// ---------------------------------------------------------------------------
// Streaming unary operators

class FilterOp final : public BatchOp {
 public:
  FilterOp(ExecutionContext* context, BoundExprPtr condition,
           std::unique_ptr<BatchOp> child)
      : BatchOp("filter"),
        context_(context),
        condition_(std::move(condition)),
        ops_(condition_->OpCount()),
        child_(std::move(child)) {}

 protected:
  Result<bool> NextImpl(Batch* out) override {
    VDB_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    const size_t n = out->NumActive();
    rows_in_ += n;
    context_->ChargeCpu(static_cast<double>(n) * ops_ *
                        context_->cpu_model().ops_per_operator);
    condition_->FilterBatch(out);
    return true;  // possibly zero active rows; caller keeps pulling
  }

 private:
  ExecutionContext* context_;
  BoundExprPtr condition_;
  const double ops_;
  std::unique_ptr<BatchOp> child_;
};

class ProjectOp final : public BatchOp {
 public:
  ProjectOp(ExecutionContext* context, std::vector<BoundExprPtr> exprs,
            std::unique_ptr<BatchOp> child)
      : BatchOp("project"),
        context_(context),
        exprs_(std::move(exprs)),
        ops_(TotalOps(exprs_)),
        child_(std::move(child)) {}

 protected:
  Result<bool> NextImpl(Batch* out) override {
    VDB_ASSIGN_OR_RETURN(bool more, child_->Next(&input_));
    if (!more) return false;
    const CpuWorkModel& cpu = context_->cpu_model();
    const size_t n = input_.NumActive();
    context_->ChargeCpu(static_cast<double>(n) *
                        (cpu.ops_per_tuple + ops_ * cpu.ops_per_operator));
    out->columns.resize(exprs_.size());
    for (size_t c = 0; c < exprs_.size(); ++c) {
      exprs_[c]->EvaluateBatch(input_, &out->columns[c]);
    }
    out->SetRowCount(n);
    return true;
  }

 private:
  ExecutionContext* context_;
  std::vector<BoundExprPtr> exprs_;
  const double ops_;
  std::unique_ptr<BatchOp> child_;
  Batch input_;
};

class LimitOp final : public BatchOp {
 public:
  LimitOp(int64_t limit, std::unique_ptr<BatchOp> child)
      : BatchOp("limit"),
        remaining_(limit <= 0 ? 0 : static_cast<size_t>(limit)),
        child_(std::move(child)) {}

 protected:
  Result<bool> NextImpl(Batch* out) override {
    // Once satisfied, the child is never pulled again (the batch engine's
    // early exit; LIMIT 0 never pulls it at all, like the row engine).
    if (remaining_ == 0) return false;
    VDB_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) {
      remaining_ = 0;
      return false;
    }
    const size_t n = out->NumActive();
    if (n >= remaining_) {
      out->sel.resize(remaining_);
      remaining_ = 0;
    } else {
      remaining_ -= n;
    }
    return true;
  }

 private:
  size_t remaining_;
  std::unique_ptr<BatchOp> child_;
};

// ---------------------------------------------------------------------------
// Materializing operators

class SortOp final : public BatchOp {
 public:
  SortOp(ExecutionContext* context, std::vector<BoundExprPtr> keys,
         std::vector<bool> ascending, std::vector<TypeId> declared,
         std::unique_ptr<BatchOp> child)
      : BatchOp("sort"),
        context_(context),
        keys_(std::move(keys)),
        ascending_(std::move(ascending)),
        types_(std::move(declared)),
        child_(std::move(child)) {}

 protected:
  Result<bool> NextImpl(Batch* out) override {
    if (!built_) {
      built_ = true;
      VDB_RETURN_NOT_OK(Build());
    }
    if (spilled_) return emitter_.Emit(out);
    if (cursor_ >= order_.size()) return false;
    const size_t m = std::min(Batch::kDefaultRows, order_.size() - cursor_);
    out->Reset(types_, m);
    for (size_t i = 0; i < m; ++i) {
      const RowRef& ref = order_[cursor_ + i];
      const Batch& src = batches_[ref.batch];
      const size_t phys = src.sel[ref.pos];
      for (size_t c = 0; c < types_.size(); ++c) {
        out->columns[c].CopyFrom(src.columns[c], phys, i);
      }
    }
    out->SetRowCount(m);
    cursor_ += m;
    return true;
  }

 private:
  struct RowRef {
    uint32_t batch;
    uint32_t pos;  // index into the batch's selection vector
  };

  Status Build() {
    const CpuWorkModel& cpu = context_->cpu_model();
    Batch batch;
    double bytes = 0.0;
    size_t total = 0;
    while (true) {
      VDB_ASSIGN_OR_RETURN(bool more, child_->Next(&batch));
      if (!more) break;
      std::vector<ValueVector> key_cols(keys_.size());
      for (size_t k = 0; k < keys_.size(); ++k) {
        keys_[k]->EvaluateBatch(batch, &key_cols[k]);
      }
      for (uint32_t row : batch.sel) {
        bytes += ApproxBatchRowBytes(batch, row);
      }
      total += batch.NumActive();
      key_cols_.push_back(std::move(key_cols));
      batches_.push_back(std::move(batch));
      batch = Batch{};
    }
    const bool spills =
        bytes > static_cast<double>(context_->work_mem_bytes());
    if (spills) {
      const double pages = PagesFor(bytes);
      context_->ChargeSpillWrite(pages);
      context_->ChargeSpillRead(pages);
    }
    const double n = static_cast<double>(total);
    context_->ChargeCpu(2.0 * n * std::log2(std::max(2.0, n)) *
                        cpu.ops_per_comparison);
    context_->ChargeCpu(n * cpu.ops_per_tuple);  // materialization
    // With a spill provider attached, run as an external merge sort over
    // the boxed rows (DESIGN.md §14); the merge's input-position
    // tie-break reproduces the stable_sort permutation below exactly.
    if (spills && context_->spill_manager() != nullptr) {
      std::vector<Tuple> rows;
      std::vector<std::vector<Value>> key_rows;
      std::vector<double> row_bytes;
      rows.reserve(total);
      key_rows.reserve(total);
      row_bytes.reserve(total);
      for (uint32_t b = 0; b < batches_.size(); ++b) {
        const Batch& src = batches_[b];
        for (uint32_t p = 0; p < src.sel.size(); ++p) {
          const size_t phys = src.sel[p];
          rows.push_back(src.RowAsTuple(phys));
          std::vector<Value> key;
          key.reserve(keys_.size());
          for (size_t k = 0; k < keys_.size(); ++k) {
            key.push_back(key_cols_[b][k].GetValue(p));
          }
          key_rows.push_back(std::move(key));
          row_bytes.push_back(ApproxBatchRowBytes(src, phys));
        }
      }
      VDB_ASSIGN_OR_RETURN(
          std::vector<Tuple> sorted,
          ExternalMergeSort(context_->spill_manager(), std::move(rows),
                            key_rows, ascending_, row_bytes,
                            context_->work_mem_bytes()));
      if (!batches_.empty()) types_ = ColumnTypes(batches_[0]);
      emitter_.SetRows(std::move(sorted), types_);
      spilled_ = true;
      batches_.clear();
      key_cols_.clear();
      return Status::OK();
    }
    order_.reserve(total);
    for (uint32_t b = 0; b < batches_.size(); ++b) {
      const uint32_t active = static_cast<uint32_t>(batches_[b].NumActive());
      for (uint32_t p = 0; p < active; ++p) {
        order_.push_back(RowRef{b, p});
      }
    }
    std::stable_sort(order_.begin(), order_.end(),
                     [this](const RowRef& a, const RowRef& b) {
                       for (size_t k = 0; k < keys_.size(); ++k) {
                         const int cmp = CompareVectorsForSort(
                             key_cols_[a.batch][k], a.pos,
                             key_cols_[b.batch][k], b.pos, ascending_[k]);
                         if (cmp != 0) return cmp < 0;
                       }
                       return false;
                     });
    // Output column types come from the input batches; with no input the
    // declared types passed at construction stand (nothing is emitted).
    if (!batches_.empty()) types_ = ColumnTypes(batches_[0]);
    return Status::OK();
  }

  ExecutionContext* context_;
  std::vector<BoundExprPtr> keys_;
  std::vector<bool> ascending_;
  std::vector<TypeId> types_;
  std::unique_ptr<BatchOp> child_;
  bool built_ = false;
  std::vector<Batch> batches_;
  std::vector<std::vector<ValueVector>> key_cols_;
  std::vector<RowRef> order_;
  size_t cursor_ = 0;
  bool spilled_ = false;
  RowsEmitter emitter_;
};

class TopNOp final : public BatchOp {
 public:
  TopNOp(ExecutionContext* context, const optimizer::PhysTopN& node,
         std::vector<BoundExprPtr> keys, std::vector<bool> ascending,
         std::unique_ptr<BatchOp> child)
      : BatchOp("top_n"),
        context_(context),
        keys_(std::move(keys)),
        ascending_(std::move(ascending)),
        declared_(DeclaredTypes(node.output)),
        k_(node.limit <= 0 ? 0 : static_cast<size_t>(node.limit)),
        child_(std::move(child)) {}

 protected:
  Result<bool> NextImpl(Batch* out) override {
    if (!built_) {
      built_ = true;
      VDB_RETURN_NOT_OK(Build());
    }
    return emitter_.Emit(out);
  }

 private:
  // (boxed key vector, global input index, materialized row); `worse`
  // orders the heap identically to the row engine's, so both retain
  // exactly the same rows.
  struct Entry {
    std::vector<Value> key;
    size_t index;
    Tuple row;
  };

  Entry BoxEntry(const Batch& batch, const std::vector<ValueVector>& key_cols,
                 size_t p, size_t index) const {
    Entry entry;
    entry.key.reserve(key_cols.size());
    for (const ValueVector& kc : key_cols) {
      entry.key.push_back(kc.GetValue(p));
    }
    entry.index = index;
    entry.row = batch.RowAsTuple(batch.sel[p]);
    return entry;
  }

  Status Build() {
    // LIMIT 0: nothing can qualify, so skip the child entirely.
    if (k_ == 0) return Status::OK();
    const CpuWorkModel& cpu = context_->cpu_model();
    auto worse = [this](const Entry& a, const Entry& b) {
      for (size_t i = 0; i < ascending_.size(); ++i) {
        const int cmp = CompareForSort(a.key[i], b.key[i], ascending_[i]);
        if (cmp != 0) return cmp < 0;  // "less" = better; heap keeps worst up
      }
      return a.index < b.index;  // stable tie-break: later rows are "worse"
    };
    std::vector<Entry> heap;
    heap.reserve(k_ + 1);
    Batch batch;
    std::vector<ValueVector> key_cols(keys_.size());
    size_t total = 0;
    while (true) {
      VDB_ASSIGN_OR_RETURN(bool more, child_->Next(&batch));
      if (!more) break;
      for (size_t k = 0; k < keys_.size(); ++k) {
        keys_[k]->EvaluateBatch(batch, &key_cols[k]);
      }
      const size_t n = batch.NumActive();
      for (size_t p = 0; p < n; ++p) {
        const size_t index = total + p;
        if (heap.size() < k_) {
          heap.push_back(BoxEntry(batch, key_cols, p, index));
          std::push_heap(heap.begin(), heap.end(), worse);
          continue;
        }
        // Compare the candidate against the worst retained row without
        // boxing. A full-key tie keeps the earlier row (the candidate's
        // index is always larger), matching the row engine's tie-break.
        const Entry& front = heap.front();
        int cmp = 0;
        for (size_t k = 0; k < keys_.size(); ++k) {
          cmp = CompareVectorWithValue(key_cols[k], p, front.key[k],
                                       ascending_[k]);
          if (cmp != 0) break;
        }
        if (cmp >= 0) continue;  // not better than the worst retained
        std::pop_heap(heap.begin(), heap.end(), worse);
        heap.back() = BoxEntry(batch, key_cols, p, index);
        std::push_heap(heap.begin(), heap.end(), worse);
      }
      total += n;
    }
    const double n = static_cast<double>(total);
    context_->ChargeCpu(
        2.0 * n *
        std::log2(std::max<double>(
            2.0, static_cast<double>(std::max<size_t>(k_, 2)))) *
        cpu.ops_per_comparison);
    std::sort_heap(heap.begin(), heap.end(), worse);
    context_->ChargeCpu(static_cast<double>(heap.size()) *
                        cpu.ops_per_tuple);
    std::vector<Tuple> rows;
    rows.reserve(heap.size());
    for (Entry& entry : heap) rows.push_back(std::move(entry.row));
    emitter_.SetRows(std::move(rows), declared_);
    return Status::OK();
  }

  ExecutionContext* context_;
  std::vector<BoundExprPtr> keys_;
  std::vector<bool> ascending_;
  std::vector<TypeId> declared_;
  const size_t k_;
  std::unique_ptr<BatchOp> child_;
  bool built_ = false;
  RowsEmitter emitter_;
};

// ---------------------------------------------------------------------------
// Joins and aggregation

class HashJoinOp final : public BatchOp {
 public:
  HashJoinOp(ExecutionContext* context, const optimizer::PhysHashJoin& join,
             std::vector<BoundExprPtr> left_keys,
             std::vector<BoundExprPtr> right_keys, BoundExprPtr residual,
             std::unique_ptr<BatchOp> left, std::unique_ptr<BatchOp> right)
      : BatchOp("hash_join"),
        context_(context),
        join_(join),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        residual_(std::move(residual)),
        residual_ops_(residual_ != nullptr ? residual_->OpCount() : 0.0),
        left_col_(SingleColumnKey(left_keys_)),
        right_col_(SingleColumnKey(right_keys_)),
        emit_right_(join.join_type == LogicalJoinType::kInner ||
                    join.join_type == LogicalJoinType::kLeft),
        left_(std::move(left)),
        right_(std::move(right)) {}

 protected:
  Result<bool> NextImpl(Batch* out) override {
    if (!built_) {
      built_ = true;
      VDB_RETURN_NOT_OK(Build());
    }
    if (cursor_ >= out_refs_.size()) return false;
    const size_t m = std::min(Batch::kDefaultRows, out_refs_.size() - cursor_);
    out->Reset(types_, m);
    for (size_t i = 0; i < m; ++i) {
      const OutRef& ref = out_refs_[cursor_ + i];
      const Batch& lb = left_batches_[ref.left.batch];
      const size_t lphys = lb.sel[ref.left.pos];
      for (size_t c = 0; c < left_width_; ++c) {
        out->columns[c].CopyFrom(lb.columns[c], lphys, i);
      }
      if (!emit_right_) continue;
      if (ref.right.batch == kNullBatch) {
        for (size_t c = left_width_; c < types_.size(); ++c) {
          out->columns[c].SetNull(i);
        }
      } else {
        const Batch& rb = right_batches_[ref.right.batch];
        const size_t rphys = rb.sel[ref.right.pos];
        for (size_t c = left_width_; c < types_.size(); ++c) {
          out->columns[c].CopyFrom(rb.columns[c - left_width_], rphys, i);
        }
      }
    }
    out->SetRowCount(m);
    cursor_ += m;
    return true;
  }

 private:
  /// A row of a drained batch vector: batch index plus index into the
  /// batch's selection vector.
  struct RowRef {
    uint32_t batch = 0;
    uint32_t pos = 0;
  };
  /// right.batch == kNullBatch marks no right side (outer/semi/anti).
  struct OutRef {
    RowRef left;
    RowRef right;
  };
  static constexpr uint32_t kNullBatch = UINT32_MAX;

  Status Build() {
    const CpuWorkModel& cpu = context_->cpu_model();
    // Drain the left (probe) child fully before the right (build) child —
    // the same page-access order as the row engine, so buffer-pool
    // eviction behaves identically.
    VDB_RETURN_NOT_OK(DrainBatches(left_.get(), &left_batches_));
    VDB_RETURN_NOT_OK(DrainBatches(right_.get(), &right_batches_));

    const size_t num_keys = right_keys_.size();
    if (left_col_ == nullptr) {
      left_key_cols_.resize(left_batches_.size());
      for (size_t b = 0; b < left_batches_.size(); ++b) {
        left_key_cols_[b].resize(left_keys_.size());
        for (size_t k = 0; k < left_keys_.size(); ++k) {
          left_keys_[k]->EvaluateBatch(left_batches_[b],
                                       &left_key_cols_[b][k]);
        }
      }
    }
    if (right_col_ == nullptr) {
      right_key_cols_.resize(right_batches_.size());
      for (size_t b = 0; b < right_batches_.size(); ++b) {
        right_key_cols_[b].resize(right_keys_.size());
        for (size_t k = 0; k < right_keys_.size(); ++k) {
          right_keys_[k]->EvaluateBatch(right_batches_[b],
                                        &right_key_cols_[b][k]);
        }
      }
    }
    // Key column k of the row at (batch, active pos): single-column keys
    // borrow the stored input column (physical index), computed keys use
    // the dense per-batch key vectors.
    auto left_key = [&](uint32_t b, uint32_t p,
                        size_t k) -> std::pair<const ValueVector*, size_t> {
      if (left_col_ != nullptr) {
        return {&left_batches_[b].columns[left_col_->slot()],
                left_batches_[b].sel[p]};
      }
      return {&left_key_cols_[b][k], p};
    };
    auto right_key = [&](uint32_t b, uint32_t p,
                         size_t k) -> std::pair<const ValueVector*, size_t> {
      if (right_col_ != nullptr) {
        return {&right_batches_[b].columns[right_col_->slot()],
                right_batches_[b].sel[p]};
      }
      return {&right_key_cols_[b][k], p};
    };

    // With a spill provider attached, an over-work_mem build side runs as
    // a Grace partitioned join. The decision pre-scans build bytes in the
    // same accumulation order as the build loop below (bitwise-identical
    // trigger); GraceHashJoin replays the serial charge sequence exactly
    // (DESIGN.md §14).
    if (context_->spill_manager() != nullptr) {
      double scan_bytes = 0.0;
      for (const Batch& batch : right_batches_) {
        for (uint32_t row : batch.sel) {
          scan_bytes += ApproxBatchRowBytes(batch, row);
        }
      }
      if (scan_bytes > static_cast<double>(context_->work_mem_bytes())) {
        // Build-side charges, exactly as the build loop below.
        std::vector<RowRef> right_refs;
        std::vector<Tuple> grace_right_rows;
        std::vector<std::vector<Value>> grace_right_keys;
        for (uint32_t b = 0; b < right_batches_.size(); ++b) {
          const Batch& batch = right_batches_[b];
          const uint32_t active = static_cast<uint32_t>(batch.NumActive());
          for (uint32_t p = 0; p < active; ++p) {
            context_->ChargeCpu(cpu.ops_per_hash + cpu.ops_per_tuple);
            right_refs.push_back(RowRef{b, p});
            grace_right_rows.push_back(batch.RowAsTuple(batch.sel[p]));
            std::vector<Value> key;
            key.reserve(num_keys);
            for (size_t k = 0; k < num_keys; ++k) {
              auto [vec, idx] = right_key(b, p, k);
              key.push_back(vec->GetValue(idx));
            }
            grace_right_keys.push_back(std::move(key));
          }
        }
        double probe_bytes = 0.0;
        for (const Batch& batch : left_batches_) {
          for (uint32_t row : batch.sel) {
            probe_bytes += ApproxBatchRowBytes(batch, row);
          }
        }
        const double pages = PagesFor(scan_bytes) + PagesFor(probe_bytes);
        context_->ChargeSpillWrite(pages);
        context_->ChargeSpillRead(pages);

        std::vector<RowRef> left_refs;
        std::vector<Tuple> grace_left_rows;
        std::vector<std::vector<Value>> grace_left_keys;
        for (uint32_t b = 0; b < left_batches_.size(); ++b) {
          const Batch& batch = left_batches_[b];
          const uint32_t active = static_cast<uint32_t>(batch.NumActive());
          for (uint32_t p = 0; p < active; ++p) {
            left_refs.push_back(RowRef{b, p});
            grace_left_rows.push_back(batch.RowAsTuple(batch.sel[p]));
            std::vector<Value> key;
            key.reserve(num_keys);
            for (size_t k = 0; k < num_keys; ++k) {
              auto [vec, idx] = left_key(b, p, k);
              key.push_back(vec->GetValue(idx));
            }
            grace_left_keys.push_back(std::move(key));
          }
        }
        GraceJoinSpec spec;
        spec.join_type = join_.join_type;
        spec.residual = residual_.get();
        spec.residual_ops = residual_ops_;
        spec.num_keys = num_keys;
        spec.left_rows = &grace_left_rows;
        spec.left_keys = &grace_left_keys;
        spec.right_rows = &grace_right_rows;
        spec.right_keys = &grace_right_keys;
        spec.poll_budget = false;  // this probe loop polls per batch
        VDB_ASSIGN_OR_RETURN(
            std::vector<GraceEmit> emits,
            GraceHashJoin(context_, context_->spill_manager(), spec));
        out_refs_.reserve(emits.size());
        for (const GraceEmit& emit : emits) {
          out_refs_.push_back(
              OutRef{left_refs[emit.left],
                     emit.right == kGraceNoRight ? RowRef{kNullBatch, 0}
                                                 : right_refs[emit.right]});
        }
        types_ = left_batches_.empty()
                     ? DeclaredTypes(join_.children[0]->output)
                     : ColumnTypes(left_batches_[0]);
        left_width_ = types_.size();
        if (emit_right_) {
          const std::vector<TypeId> right_types =
              right_batches_.empty()
                  ? DeclaredTypes(join_.children[1]->output)
                  : ColumnTypes(right_batches_[0]);
          types_.insert(types_.end(), right_types.begin(),
                        right_types.end());
        }
        return Status::OK();
      }
    }

    // Build side: right input. Buckets map the key hash to build-row
    // refs; key equality is re-checked at probe time, so hash collisions
    // behave exactly like the row engine's exact-key map.
    std::unordered_map<size_t, std::vector<RowRef>> table;
    table.reserve(EstimateReserve(join_.children[1]->estimated_rows));
    double build_bytes = 0.0;
    for (uint32_t b = 0; b < right_batches_.size(); ++b) {
      const Batch& batch = right_batches_[b];
      const uint32_t active = static_cast<uint32_t>(batch.NumActive());
      for (uint32_t p = 0; p < active; ++p) {
        context_->ChargeCpu(cpu.ops_per_hash + cpu.ops_per_tuple);
        build_bytes += ApproxBatchRowBytes(batch, batch.sel[p]);
        size_t h = kHashSeed;
        bool has_null = false;
        for (size_t k = 0; k < num_keys; ++k) {
          auto [vec, idx] = right_key(b, p, k);
          if (vec->IsNull(idx)) {
            has_null = true;
            break;
          }
          h = CombineHash(h, vec->HashAt(idx));
        }
        if (has_null) continue;  // NULL keys never join
        table[h].push_back(RowRef{b, p});
      }
    }
    if (build_bytes > static_cast<double>(context_->work_mem_bytes())) {
      // Grace hash join: both sides spilled and re-read once.
      double probe_bytes = 0.0;
      for (const Batch& batch : left_batches_) {
        for (uint32_t row : batch.sel) {
          probe_bytes += ApproxBatchRowBytes(batch, row);
        }
      }
      const double pages = PagesFor(build_bytes) + PagesFor(probe_bytes);
      context_->ChargeSpillWrite(pages);
      context_->ChargeSpillRead(pages);
    }

    // Budget check point per probe batch: the whole probe runs inside one
    // Next call, and a join far over its budget would otherwise hold all
    // of its output refs before the check after Build sees the overrun.
    // Simulated charges only grow, so a query that stops here would have
    // stopped there too.
    BudgetGuard* const guard = context_->budget_guard();
    for (uint32_t b = 0; b < left_batches_.size(); ++b) {
      if (guard != nullptr) VDB_RETURN_NOT_OK(guard->Check());
      const Batch& batch = left_batches_[b];
      const uint32_t active = static_cast<uint32_t>(batch.NumActive());
      for (uint32_t p = 0; p < active; ++p) {
        context_->ChargeCpu(cpu.ops_per_hash);
        size_t h = kHashSeed;
        bool has_null = false;
        for (size_t k = 0; k < num_keys; ++k) {
          auto [vec, idx] = left_key(b, p, k);
          if (vec->IsNull(idx)) {
            has_null = true;
            break;
          }
          h = CombineHash(h, vec->HashAt(idx));
        }
        bool matched = false;
        if (!has_null) {
          auto it = table.find(h);
          if (it != table.end()) {
            for (const RowRef& rr : it->second) {
              // Equality before any charge: collisions stay free.
              bool equal = true;
              for (size_t k = 0; k < num_keys; ++k) {
                auto [lv, li] = left_key(b, p, k);
                auto [rv, ri] = right_key(rr.batch, rr.pos, k);
                if (catalog::CompareAt(*lv, li, *rv, ri) != 0) {
                  equal = false;
                  break;
                }
              }
              if (!equal) continue;
              context_->ChargeCpu(cpu.ops_per_comparison +
                                  residual_ops_ * cpu.ops_per_operator);
              bool passes = true;
              if (residual_ != nullptr) {
                const Batch& rb = right_batches_[rr.batch];
                Tuple combined_row = ConcatRows(batch.RowAsTuple(batch.sel[p]),
                                                rb.RowAsTuple(rb.sel[rr.pos]));
                passes = EvaluatesToTrue(*residual_, combined_row);
              }
              if (!passes) continue;
              matched = true;
              if (join_.join_type == LogicalJoinType::kInner ||
                  join_.join_type == LogicalJoinType::kLeft) {
                context_->ChargeCpu(cpu.ops_per_tuple);
                out_refs_.push_back(OutRef{RowRef{b, p}, rr});
              } else if (join_.join_type == LogicalJoinType::kSemi ||
                         join_.join_type == LogicalJoinType::kAnti) {
                break;  // one match is enough
              }
            }
          }
        }
        switch (join_.join_type) {
          case LogicalJoinType::kLeft:
            if (!matched) {
              context_->ChargeCpu(cpu.ops_per_tuple);
              out_refs_.push_back(OutRef{RowRef{b, p}, RowRef{kNullBatch, 0}});
            }
            break;
          case LogicalJoinType::kSemi:
            if (matched) {
              context_->ChargeCpu(cpu.ops_per_tuple);
              out_refs_.push_back(OutRef{RowRef{b, p}, RowRef{kNullBatch, 0}});
            }
            break;
          case LogicalJoinType::kAnti:
            if (!matched) {
              context_->ChargeCpu(cpu.ops_per_tuple);
              out_refs_.push_back(OutRef{RowRef{b, p}, RowRef{kNullBatch, 0}});
            }
            break;
          default:
            break;
        }
      }
    }

    types_ = left_batches_.empty() ? DeclaredTypes(join_.children[0]->output)
                                   : ColumnTypes(left_batches_[0]);
    left_width_ = types_.size();
    if (emit_right_) {
      const std::vector<TypeId> right_types =
          right_batches_.empty() ? DeclaredTypes(join_.children[1]->output)
                                 : ColumnTypes(right_batches_[0]);
      types_.insert(types_.end(), right_types.begin(), right_types.end());
    }
    return Status::OK();
  }

  ExecutionContext* context_;
  const optimizer::PhysHashJoin& join_;
  std::vector<BoundExprPtr> left_keys_;
  std::vector<BoundExprPtr> right_keys_;
  BoundExprPtr residual_;
  const double residual_ops_;
  const plan::ColumnExpr* left_col_;
  const plan::ColumnExpr* right_col_;
  const bool emit_right_;
  std::unique_ptr<BatchOp> left_;
  std::unique_ptr<BatchOp> right_;
  bool built_ = false;
  std::vector<Batch> left_batches_;
  std::vector<Batch> right_batches_;
  std::vector<std::vector<ValueVector>> left_key_cols_;
  std::vector<std::vector<ValueVector>> right_key_cols_;
  std::vector<OutRef> out_refs_;
  std::vector<TypeId> types_;
  size_t left_width_ = 0;
  size_t cursor_ = 0;
};

class HashAggregateOp final : public BatchOp {
 public:
  HashAggregateOp(ExecutionContext* context,
                  const optimizer::PhysHashAggregate& node,
                  std::vector<BoundExprPtr> group_exprs,
                  std::vector<plan::AggSpec> aggs,
                  std::unique_ptr<BatchOp> child)
      : BatchOp("hash_aggregate"),
        context_(context),
        node_(node),
        group_exprs_(std::move(group_exprs)),
        aggs_(std::move(aggs)),
        group_col_(SingleColumnKey(group_exprs_)),
        child_(std::move(child)) {}

 protected:
  Result<bool> NextImpl(Batch* out) override {
    if (!built_) {
      built_ = true;
      VDB_RETURN_NOT_OK(Build());
    }
    return emitter_.Emit(out);
  }

 private:
  struct Group {
    ValueKey key;
    std::vector<AggState> states;
  };

  Status Build() {
    const CpuWorkModel& cpu = context_->cpu_model();
    const double group_ops = TotalOps(group_exprs_);
    double agg_ops = 0.0;
    for (const plan::AggSpec& spec : aggs_) {
      agg_ops += 1.0 + (spec.arg != nullptr ? spec.arg->OpCount() : 0);
    }
    const size_t num_keys = group_exprs_.size();

    // Groups live in insertion order (= output order); buckets map the
    // key hash to group indices. GROUP BY treats NULLs as equal, so NULL
    // keys hash (to a constant) and group like any other value.
    std::vector<Group> groups;
    std::unordered_map<size_t, std::vector<uint32_t>> buckets;
    const size_t estimate = EstimateReserve(node_.estimated_rows);
    groups.reserve(estimate);
    buckets.reserve(estimate);

    Batch batch;
    std::vector<ValueVector> group_cols(num_keys);
    std::vector<ValueVector> agg_cols(aggs_.size());
    uint64_t input_rows = 0;
    while (true) {
      VDB_ASSIGN_OR_RETURN(bool more, child_->Next(&batch));
      if (!more) break;
      const size_t n = batch.NumActive();
      input_rows += n;
      if (group_col_ == nullptr) {
        for (size_t k = 0; k < num_keys; ++k) {
          group_exprs_[k]->EvaluateBatch(batch, &group_cols[k]);
        }
      }
      for (size_t a = 0; a < aggs_.size(); ++a) {
        if (aggs_[a].arg != nullptr) {
          aggs_[a].arg->EvaluateBatch(batch, &agg_cols[a]);
        }
      }
      context_->ChargeCpu(static_cast<double>(n) *
                          (cpu.ops_per_tuple + cpu.ops_per_hash +
                           (group_ops + agg_ops) * cpu.ops_per_operator));
      if (num_keys == 0) {
        // Global aggregate: exactly one group ever exists, so skip the
        // per-row hash and bucket probe entirely; COUNT(*) states advance
        // in one bulk step per batch.
        if (groups.empty()) {
          Group g;
          g.states.assign(aggs_.size(), AggState{});
          groups.push_back(std::move(g));
        }
        Group& group = groups.front();
        for (size_t a = 0; a < aggs_.size(); ++a) {
          const plan::AggSpec& spec = aggs_[a];
          if (spec.kind == plan::AggKind::kCountStar) {
            group.states[a].count += static_cast<int64_t>(n);
            continue;
          }
          if (spec.arg == nullptr) continue;  // null-arg updates are no-ops
          for (size_t p = 0; p < n; ++p) {
            group.states[a].Update(spec, agg_cols[a].GetValue(p));
          }
        }
        continue;
      }
      // A single-column group borrows the input column (physical index);
      // computed keys use the dense vectors.
      auto key_at = [&](size_t k,
                        size_t p) -> std::pair<const ValueVector*, size_t> {
        if (group_col_ != nullptr) {
          return {&batch.columns[group_col_->slot()], batch.sel[p]};
        }
        return {&group_cols[k], p};
      };
      for (size_t p = 0; p < n; ++p) {
        size_t h = kHashSeed;
        for (size_t k = 0; k < num_keys; ++k) {
          auto [vec, idx] = key_at(k, p);
          h = CombineHash(h, vec->HashAt(idx));
        }
        std::vector<uint32_t>& bucket = buckets[h];
        Group* group = nullptr;
        for (uint32_t gi : bucket) {
          const std::vector<Value>& gkey = groups[gi].key.values;
          bool equal = true;
          for (size_t k = 0; k < num_keys; ++k) {
            auto [vec, idx] = key_at(k, p);
            const bool a_null = vec->IsNull(idx);
            const bool b_null = gkey[k].is_null();
            if (a_null != b_null) {
              equal = false;
              break;
            }
            if (a_null) continue;
            if (catalog::CompareWithValue(*vec, idx, gkey[k]) != 0) {
              equal = false;
              break;
            }
          }
          if (equal) {
            group = &groups[gi];
            break;
          }
        }
        if (group == nullptr) {
          bucket.push_back(static_cast<uint32_t>(groups.size()));
          Group g;
          g.key.values.reserve(num_keys);
          for (size_t k = 0; k < num_keys; ++k) {
            auto [vec, idx] = key_at(k, p);
            g.key.values.push_back(vec->GetValue(idx));
          }
          g.states.assign(aggs_.size(), AggState{});
          groups.push_back(std::move(g));
          group = &groups.back();
        }
        for (size_t a = 0; a < aggs_.size(); ++a) {
          const plan::AggSpec& spec = aggs_[a];
          Value v;
          if (spec.arg != nullptr) v = agg_cols[a].GetValue(p);
          group->states[a].Update(spec, v);
        }
      }
    }

    // Memory-pressure model (DESIGN.md §14): the same integer accounting
    // as the row engine, so both engines charge the identical spill pass.
    // This engine keeps the in-memory table either way (charge-only; the
    // row engine also carries the external re-aggregation mechanism).
    AggSpillStats spill_stats;
    spill_stats.groups = groups.size();
    spill_stats.input_rows = input_rows;
    spill_stats.num_keys = num_keys;
    spill_stats.num_aggs = aggs_.size();
    spill_stats.input_cols = node_.children[0]->output.size();
    if (AggSpillTriggered(spill_stats, context_->work_mem_bytes())) {
      ChargeAggSpill(context_, spill_stats);
    }

    std::vector<Tuple> rows;
    if (groups.empty() && group_exprs_.empty()) {
      // Global aggregate over zero rows yields one row of initial values.
      Tuple row;
      for (const plan::AggSpec& spec : aggs_) {
        row.push_back(AggState().Finalize(spec));
      }
      context_->ChargeCpu(cpu.ops_per_tuple);
      rows.push_back(std::move(row));
    } else {
      rows.reserve(groups.size());
      for (const Group& group : groups) {
        context_->ChargeCpu(cpu.ops_per_tuple);
        Tuple row = group.key.values;
        for (size_t a = 0; a < aggs_.size(); ++a) {
          row.push_back(group.states[a].Finalize(aggs_[a]));
        }
        rows.push_back(std::move(row));
      }
    }
    emitter_.SetRows(std::move(rows), DeclaredTypes(node_.output));
    return Status::OK();
  }

  ExecutionContext* context_;
  const optimizer::PhysHashAggregate& node_;
  std::vector<BoundExprPtr> group_exprs_;
  std::vector<plan::AggSpec> aggs_;
  const plan::ColumnExpr* group_col_;
  std::unique_ptr<BatchOp> child_;
  bool built_ = false;
  RowsEmitter emitter_;
};

/// Merge join delegates the join loop (and its charges) to the shared
/// MergeJoinRows; inputs are drained batch-wise and boxed.
class MergeJoinOp final : public BatchOp {
 public:
  MergeJoinOp(ExecutionContext* context, const optimizer::PhysMergeJoin& node,
              BoundExprPtr left_key, BoundExprPtr right_key,
              BoundExprPtr residual, std::unique_ptr<BatchOp> left,
              std::unique_ptr<BatchOp> right)
      : BatchOp("merge_join"),
        context_(context),
        node_(node),
        left_key_(std::move(left_key)),
        right_key_(std::move(right_key)),
        residual_(std::move(residual)),
        left_(std::move(left)),
        right_(std::move(right)) {}

 protected:
  Result<bool> NextImpl(Batch* out) override {
    if (!built_) {
      built_ = true;
      VDB_ASSIGN_OR_RETURN(std::vector<Tuple> left_rows,
                           DrainToTuples(left_.get()));
      VDB_ASSIGN_OR_RETURN(std::vector<Tuple> right_rows,
                           DrainToTuples(right_.get()));
      VDB_ASSIGN_OR_RETURN(
          std::vector<Tuple> rows,
          MergeJoinRows(context_, left_rows, right_rows, *left_key_,
                        *right_key_, residual_.get()));
      emitter_.SetRows(std::move(rows), DeclaredTypes(node_.output));
    }
    return emitter_.Emit(out);
  }

 private:
  ExecutionContext* context_;
  const optimizer::PhysMergeJoin& node_;
  BoundExprPtr left_key_;
  BoundExprPtr right_key_;
  BoundExprPtr residual_;
  std::unique_ptr<BatchOp> left_;
  std::unique_ptr<BatchOp> right_;
  bool built_ = false;
  RowsEmitter emitter_;
};

/// Nested-loop join delegates to the shared NestedLoopJoinRows (including
/// the inner-side spill model).
class NestedLoopJoinOp final : public BatchOp {
 public:
  NestedLoopJoinOp(ExecutionContext* context,
                   const optimizer::PhysNestedLoopJoin& node,
                   BoundExprPtr condition, std::unique_ptr<BatchOp> left,
                   std::unique_ptr<BatchOp> right)
      : BatchOp("nested_loop_join"),
        context_(context),
        node_(node),
        condition_(std::move(condition)),
        left_(std::move(left)),
        right_(std::move(right)) {}

 protected:
  Result<bool> NextImpl(Batch* out) override {
    if (!built_) {
      built_ = true;
      VDB_ASSIGN_OR_RETURN(std::vector<Tuple> left_rows,
                           DrainToTuples(left_.get()));
      VDB_ASSIGN_OR_RETURN(std::vector<Tuple> right_rows,
                           DrainToTuples(right_.get()));
      VDB_ASSIGN_OR_RETURN(
          std::vector<Tuple> rows,
          NestedLoopJoinRows(context_, node_.join_type,
                             node_.children[1]->output, left_rows, right_rows,
                             condition_.get()));
      emitter_.SetRows(std::move(rows), DeclaredTypes(node_.output));
    }
    return emitter_.Emit(out);
  }

 private:
  ExecutionContext* context_;
  const optimizer::PhysNestedLoopJoin& node_;
  BoundExprPtr condition_;
  std::unique_ptr<BatchOp> left_;
  std::unique_ptr<BatchOp> right_;
  bool built_ = false;
  RowsEmitter emitter_;
};

// Collects every column the plan consumes anywhere above the scans: ids
// referenced by any expression (filters, keys, projections, aggregate
// arguments), plus the pass-through output ids of every non-scan node and
// of the root. A scan column absent from this set is never read, so the
// scan can skip materializing it (lazy column deserialization).
void CollectNeededColumns(const PhysicalNode& node, bool is_root,
                          NeededColumns* needed) {
  auto add_expr = [needed](const BoundExpr* expr) {
    if (expr == nullptr) return;
    std::vector<plan::ColumnId> ids;
    expr->CollectColumns(&ids);
    needed->insert(ids.begin(), ids.end());
  };
  switch (node.op) {
    case optimizer::PhysOp::kSeqScan:
      add_expr(static_cast<const optimizer::PhysSeqScan&>(node).filter.get());
      break;
    case optimizer::PhysOp::kIndexScan:
      add_expr(static_cast<const optimizer::PhysIndexScan&>(node)
                   .residual_filter.get());
      break;
    case optimizer::PhysOp::kFilter:
      add_expr(static_cast<const optimizer::PhysFilter&>(node).condition.get());
      break;
    case optimizer::PhysOp::kProject:
      for (const BoundExprPtr& expr :
           static_cast<const optimizer::PhysProject&>(node).exprs) {
        add_expr(expr.get());
      }
      break;
    case optimizer::PhysOp::kNestedLoopJoin:
      add_expr(static_cast<const optimizer::PhysNestedLoopJoin&>(node)
                   .condition.get());
      break;
    case optimizer::PhysOp::kHashJoin: {
      const auto& join = static_cast<const optimizer::PhysHashJoin&>(node);
      for (const BoundExprPtr& key : join.left_keys) add_expr(key.get());
      for (const BoundExprPtr& key : join.right_keys) add_expr(key.get());
      add_expr(join.residual.get());
      break;
    }
    case optimizer::PhysOp::kMergeJoin: {
      const auto& join = static_cast<const optimizer::PhysMergeJoin&>(node);
      add_expr(join.left_key.get());
      add_expr(join.right_key.get());
      add_expr(join.residual.get());
      break;
    }
    case optimizer::PhysOp::kSort:
      for (const optimizer::PhysSort::Key& key :
           static_cast<const optimizer::PhysSort&>(node).keys) {
        add_expr(key.expr.get());
      }
      break;
    case optimizer::PhysOp::kTopN:
      for (const optimizer::PhysSort::Key& key :
           static_cast<const optimizer::PhysTopN&>(node).keys) {
        add_expr(key.expr.get());
      }
      break;
    case optimizer::PhysOp::kHashAggregate: {
      const auto& aggregate =
          static_cast<const optimizer::PhysHashAggregate&>(node);
      for (const BoundExprPtr& expr : aggregate.group_exprs) {
        add_expr(expr.get());
      }
      for (const plan::AggSpec& spec : aggregate.aggs) {
        add_expr(spec.arg.get());
      }
      break;
    }
    case optimizer::PhysOp::kLimit:
      break;
  }
  const bool is_scan = node.op == optimizer::PhysOp::kSeqScan ||
                       node.op == optimizer::PhysOp::kIndexScan;
  if (!is_scan || is_root) {
    for (const OutputColumn& column : node.output) needed->insert(column.id);
  }
  for (const auto& child : node.children) {
    CollectNeededColumns(*child, /*is_root=*/false, needed);
  }
}

// Schema-positional lazy-materialization mask for one scan. Empty when
// every column is consumed (the common case — scans feeding joins, sorts,
// or the root pass all columns through).
std::vector<uint8_t> ScanWantedMask(const std::vector<OutputColumn>& output,
                                    size_t num_columns,
                                    const NeededColumns& needed) {
  std::vector<uint8_t> wanted(num_columns, 0);
  for (const OutputColumn& column : output) {
    const auto pos = static_cast<size_t>(column.id.column_index);
    if (pos < num_columns && needed.count(column.id) != 0) wanted[pos] = 1;
  }
  if (std::all_of(wanted.begin(), wanted.end(),
                  [](uint8_t w) { return w != 0; })) {
    wanted.clear();
  }
  return wanted;
}

}  // namespace

// ---------------------------------------------------------------------------
// BatchOp

Result<bool> BatchOp::Next(catalog::Batch* out) {
  // Budget check point (budget.h): pulls happen at batch boundaries
  // throughout the tree, including inside blocking operators' drains.
  if (guard_ != nullptr) VDB_RETURN_NOT_OK(guard_->Check());
  const bool timed = obs::MetricsRegistry::Global().enabled();
  std::chrono::steady_clock::time_point start;
  if (timed) start = std::chrono::steady_clock::now();
  Result<bool> more = NextImpl(out);
  if (timed) {
    next_seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }
  if (more.ok() && *more) {
    ++batches_;
    rows_ += out->NumActive();
    if (guard_ != nullptr && out->NumActive() > 0) {
      guard_->ChargeMemory(static_cast<double>(out->NumActive()) *
                           ApproxRowBytes(out->columns.size()));
      VDB_RETURN_NOT_OK(guard_->Check());
    }
  }
  return more;
}

// ---------------------------------------------------------------------------
// BatchExecutor

Result<std::unique_ptr<BatchOp>> BatchExecutor::Build(
    const PhysicalNode& node, size_t budget) {
  std::unique_ptr<BatchOp> op;
  if (budget != Executor::kNoBudget) {
    // An enclosing LIMIT capped this subtree: run it on the row engine
    // for exact charge parity (see BudgetedExecOp).
    op = std::make_unique<BudgetedExecOp>(context_, node, budget);
    ops_.push_back(op.get());
    return op;
  }
  switch (node.op) {
    case optimizer::PhysOp::kSeqScan: {
      const auto& scan = static_cast<const optimizer::PhysSeqScan&>(node);
      BoundExprPtr filter;
      if (scan.filter != nullptr) {
        VDB_ASSIGN_OR_RETURN(filter, ResolveExpr(*scan.filter, scan.output));
      }
      op = std::make_unique<SeqScanOp>(
          context_, scan, std::move(filter),
          ScanWantedMask(scan.output, scan.table->schema.NumColumns(),
                         needed_));
      break;
    }
    case optimizer::PhysOp::kIndexScan: {
      const auto& scan = static_cast<const optimizer::PhysIndexScan&>(node);
      BoundExprPtr residual;
      if (scan.residual_filter != nullptr) {
        VDB_ASSIGN_OR_RETURN(residual,
                             ResolveExpr(*scan.residual_filter, scan.output));
      }
      op = std::make_unique<IndexScanOp>(
          context_, scan, std::move(residual),
          ScanWantedMask(scan.output, scan.table->schema.NumColumns(),
                         needed_));
      break;
    }
    case optimizer::PhysOp::kFilter: {
      const auto& filter = static_cast<const optimizer::PhysFilter&>(node);
      VDB_ASSIGN_OR_RETURN(std::unique_ptr<BatchOp> child,
                           Build(*filter.children[0], Executor::kNoBudget));
      VDB_ASSIGN_OR_RETURN(
          BoundExprPtr condition,
          ResolveExpr(*filter.condition, filter.children[0]->output));
      op = std::make_unique<FilterOp>(context_, std::move(condition),
                                      std::move(child));
      break;
    }
    case optimizer::PhysOp::kProject: {
      const auto& project = static_cast<const optimizer::PhysProject&>(node);
      VDB_ASSIGN_OR_RETURN(std::unique_ptr<BatchOp> child,
                           Build(*project.children[0], Executor::kNoBudget));
      std::vector<BoundExprPtr> exprs;
      for (const BoundExprPtr& expr : project.exprs) {
        VDB_ASSIGN_OR_RETURN(BoundExprPtr resolved,
                             ResolveExpr(*expr, project.children[0]->output));
        exprs.push_back(std::move(resolved));
      }
      op = std::make_unique<ProjectOp>(context_, std::move(exprs),
                                       std::move(child));
      break;
    }
    case optimizer::PhysOp::kSort: {
      const auto& sort = static_cast<const optimizer::PhysSort&>(node);
      VDB_ASSIGN_OR_RETURN(std::unique_ptr<BatchOp> child,
                           Build(*sort.children[0], Executor::kNoBudget));
      std::vector<BoundExprPtr> keys;
      std::vector<bool> ascending;
      for (const optimizer::PhysSort::Key& key : sort.keys) {
        VDB_ASSIGN_OR_RETURN(BoundExprPtr resolved,
                             ResolveExpr(*key.expr, sort.children[0]->output));
        keys.push_back(std::move(resolved));
        ascending.push_back(key.ascending);
      }
      op = std::make_unique<SortOp>(context_, std::move(keys),
                                    std::move(ascending),
                                    DeclaredTypes(sort.output),
                                    std::move(child));
      break;
    }
    case optimizer::PhysOp::kTopN: {
      const auto& top_n = static_cast<const optimizer::PhysTopN&>(node);
      VDB_ASSIGN_OR_RETURN(std::unique_ptr<BatchOp> child,
                           Build(*top_n.children[0], Executor::kNoBudget));
      std::vector<BoundExprPtr> keys;
      std::vector<bool> ascending;
      for (const optimizer::PhysSort::Key& key : top_n.keys) {
        VDB_ASSIGN_OR_RETURN(
            BoundExprPtr resolved,
            ResolveExpr(*key.expr, top_n.children[0]->output));
        keys.push_back(std::move(resolved));
        ascending.push_back(key.ascending);
      }
      op = std::make_unique<TopNOp>(context_, top_n, std::move(keys),
                                    std::move(ascending), std::move(child));
      break;
    }
    case optimizer::PhysOp::kLimit: {
      const auto& limit = static_cast<const optimizer::PhysLimit&>(node);
      // The capped subtree runs on the row engine (BudgetedExecOp above),
      // so the early exit charges exactly what the row engine charges.
      // LIMIT 0 yields budget 0; LimitOp then never pulls the child,
      // matching RunLimit's child skip.
      const size_t cap =
          limit.limit <= 0 ? 0 : static_cast<size_t>(limit.limit);
      VDB_ASSIGN_OR_RETURN(std::unique_ptr<BatchOp> child,
                           Build(*limit.children[0], cap));
      op = std::make_unique<LimitOp>(limit.limit, std::move(child));
      break;
    }
    case optimizer::PhysOp::kHashJoin: {
      const auto& join = static_cast<const optimizer::PhysHashJoin&>(node);
      VDB_ASSIGN_OR_RETURN(std::unique_ptr<BatchOp> left,
                           Build(*join.children[0], Executor::kNoBudget));
      VDB_ASSIGN_OR_RETURN(std::unique_ptr<BatchOp> right,
                           Build(*join.children[1], Executor::kNoBudget));
      std::vector<BoundExprPtr> left_keys;
      std::vector<BoundExprPtr> right_keys;
      for (const BoundExprPtr& key : join.left_keys) {
        VDB_ASSIGN_OR_RETURN(BoundExprPtr resolved,
                             ResolveExpr(*key, join.children[0]->output));
        left_keys.push_back(std::move(resolved));
      }
      for (const BoundExprPtr& key : join.right_keys) {
        VDB_ASSIGN_OR_RETURN(BoundExprPtr resolved,
                             ResolveExpr(*key, join.children[1]->output));
        right_keys.push_back(std::move(resolved));
      }
      BoundExprPtr residual;
      if (join.residual != nullptr) {
        std::vector<OutputColumn> combined = join.children[0]->output;
        combined.insert(combined.end(), join.children[1]->output.begin(),
                        join.children[1]->output.end());
        VDB_ASSIGN_OR_RETURN(residual, ResolveExpr(*join.residual, combined));
      }
      op = std::make_unique<HashJoinOp>(
          context_, join, std::move(left_keys), std::move(right_keys),
          std::move(residual), std::move(left), std::move(right));
      break;
    }
    case optimizer::PhysOp::kMergeJoin: {
      const auto& join = static_cast<const optimizer::PhysMergeJoin&>(node);
      VDB_ASSIGN_OR_RETURN(std::unique_ptr<BatchOp> left,
                           Build(*join.children[0], Executor::kNoBudget));
      VDB_ASSIGN_OR_RETURN(std::unique_ptr<BatchOp> right,
                           Build(*join.children[1], Executor::kNoBudget));
      VDB_ASSIGN_OR_RETURN(
          BoundExprPtr left_key,
          ResolveExpr(*join.left_key, join.children[0]->output));
      VDB_ASSIGN_OR_RETURN(
          BoundExprPtr right_key,
          ResolveExpr(*join.right_key, join.children[1]->output));
      BoundExprPtr residual;
      if (join.residual != nullptr) {
        std::vector<OutputColumn> combined = join.children[0]->output;
        combined.insert(combined.end(), join.children[1]->output.begin(),
                        join.children[1]->output.end());
        VDB_ASSIGN_OR_RETURN(residual, ResolveExpr(*join.residual, combined));
      }
      op = std::make_unique<MergeJoinOp>(
          context_, join, std::move(left_key), std::move(right_key),
          std::move(residual), std::move(left), std::move(right));
      break;
    }
    case optimizer::PhysOp::kNestedLoopJoin: {
      const auto& join =
          static_cast<const optimizer::PhysNestedLoopJoin&>(node);
      VDB_ASSIGN_OR_RETURN(std::unique_ptr<BatchOp> left,
                           Build(*join.children[0], Executor::kNoBudget));
      VDB_ASSIGN_OR_RETURN(std::unique_ptr<BatchOp> right,
                           Build(*join.children[1], Executor::kNoBudget));
      BoundExprPtr condition;
      if (join.condition != nullptr) {
        std::vector<OutputColumn> combined = join.children[0]->output;
        combined.insert(combined.end(), join.children[1]->output.begin(),
                        join.children[1]->output.end());
        VDB_ASSIGN_OR_RETURN(condition,
                             ResolveExpr(*join.condition, combined));
      }
      op = std::make_unique<NestedLoopJoinOp>(context_, join,
                                              std::move(condition),
                                              std::move(left),
                                              std::move(right));
      break;
    }
    case optimizer::PhysOp::kHashAggregate: {
      const auto& aggregate =
          static_cast<const optimizer::PhysHashAggregate&>(node);
      VDB_ASSIGN_OR_RETURN(std::unique_ptr<BatchOp> child,
                           Build(*aggregate.children[0], Executor::kNoBudget));
      std::vector<BoundExprPtr> group_exprs;
      for (const BoundExprPtr& expr : aggregate.group_exprs) {
        VDB_ASSIGN_OR_RETURN(
            BoundExprPtr resolved,
            ResolveExpr(*expr, aggregate.children[0]->output));
        group_exprs.push_back(std::move(resolved));
      }
      std::vector<plan::AggSpec> aggs;
      for (const plan::AggSpec& spec : aggregate.aggs) {
        plan::AggSpec resolved = spec.Clone();
        if (resolved.arg != nullptr) {
          VDB_RETURN_NOT_OK(resolved.arg->ResolveSlots(
              plan::MakeLayout(aggregate.children[0]->output)));
        }
        aggs.push_back(std::move(resolved));
      }
      op = std::make_unique<HashAggregateOp>(context_, aggregate,
                                             std::move(group_exprs),
                                             std::move(aggs),
                                             std::move(child));
      break;
    }
  }
  if (op == nullptr) return Status::Internal("unhandled physical operator");
  ops_.push_back(op.get());
  return op;
}

Result<std::vector<Tuple>> BatchExecutor::Run(const PhysicalNode& node) {
  ops_.clear();
  needed_.clear();
  CollectNeededColumns(node, /*is_root=*/true, &needed_);
  VDB_ASSIGN_OR_RETURN(std::unique_ptr<BatchOp> root,
                       Build(node, Executor::kNoBudget));
  if (BudgetGuard* guard = context_->budget_guard()) {
    // Arm every operator, not just the root: blocking operators (sort,
    // aggregate, join builds) drain their children inside one NextImpl
    // call, and the child pulls are where the budget has to bite.
    for (BatchOp* op : ops_) op->set_budget_guard(guard);
  }
  std::vector<Tuple> rows;
  Batch batch;
  while (true) {
    VDB_ASSIGN_OR_RETURN(bool more, root->Next(&batch));
    if (!more) break;
    for (uint32_t row : batch.sel) rows.push_back(batch.RowAsTuple(row));
  }
  // Executor instrumentation (DESIGN.md §9/§12): the same per-node
  // counters the row engine keeps, plus batch-specific throughput and
  // selectivity gauges per operator.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const operators_executed =
      obs::MetricsRegistry::Global().GetCounter("exec.operators_executed");
  static obs::Counter* const tuples_produced =
      obs::MetricsRegistry::Global().GetCounter("exec.tuples_produced");
  static obs::Counter* const batches_produced =
      obs::MetricsRegistry::Global().GetCounter("exec.batch.batches_produced");
  static obs::Counter* const batch_rows =
      obs::MetricsRegistry::Global().GetCounter("exec.batch.rows_produced");
  uint64_t total_rows = 0;
  uint64_t total_batches = 0;
  for (const BatchOp* op : ops_) {
    total_rows += op->rows_produced();
    total_batches += op->batches_produced();
  }
  operators_executed->Add(ops_.size());
  tuples_produced->Add(total_rows);
  batches_produced->Add(total_batches);
  batch_rows->Add(total_rows);
  if (registry.enabled()) {
    for (const BatchOp* op : ops_) {
      const std::string name = op->name();
      if (op->next_seconds() > 0.0) {
        registry.GetGauge("exec.batch.rows_per_sec." + name)
            ->Set(static_cast<double>(op->rows_produced()) /
                  op->next_seconds());
      }
      if (op->rows_in() > 0) {
        registry.GetGauge("exec.batch.selectivity." + name)
            ->Set(static_cast<double>(op->rows_produced()) /
                  static_cast<double>(op->rows_in()));
      }
    }
  }
  return rows;
}

}  // namespace vdb::exec
