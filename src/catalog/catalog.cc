#include "catalog/catalog.h"

#include <algorithm>
#include <bit>

#include "catalog/batch.h"
#include "util/string_util.h"

namespace vdb::catalog {

namespace {

// Exact count of distinct 64-bit hashes for ANALYZE's NDV: open addressing
// with linear probing over a power-of-two table that doubles at half
// load, so its size follows the NDV rather than the row count. Zero marks
// an empty slot, so a zero hash is counted on the side.
class DistinctHashCounter {
 public:
  void Insert(uint64_t hash) {
    if (hash == 0) {
      has_zero_ = true;
      return;
    }
    if (2 * (count_ + 1) > slots_.size()) Grow();
    Place(hash);
  }

  uint64_t size() const { return count_ + (has_zero_ ? 1 : 0); }

 private:
  void Place(uint64_t hash) {
    const size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the multiply's high bits pick the home slot, so
    // identity-hashed integers spread as well as hashed strings.
    for (size_t i = (hash * 0x9e3779b97f4a7c15ULL) >> shift_;;
         i = (i + 1) & mask) {
      if (slots_[i] == hash) return;
      if (slots_[i] == 0) {
        slots_[i] = hash;
        ++count_;
        return;
      }
    }
  }

  void Grow() {
    std::vector<uint64_t> old = std::move(slots_);
    const size_t capacity = old.empty() ? 16 : 2 * old.size();
    slots_.assign(capacity, 0);
    shift_ = 64 - std::countr_zero(capacity);
    count_ = 0;
    for (uint64_t hash : old) {
      if (hash != 0) Place(hash);
    }
  }

  std::vector<uint64_t> slots_;
  int shift_ = 64;
  uint64_t count_ = 0;
  bool has_zero_ = false;
};

// One sequential pass over `table`'s heap, a page at a time: decodes the
// page's live records into a reused batch (only the `wanted` columns when
// non-null), releases the page's pin, then calls
// visit(records, batch) -> Status. Only the records' rids are valid by
// then. Pages are fetched and unpinned in the order of the copying heap
// iterator, so pool traffic that `visit` adds interleaves the same way.
template <typename Visit>
Status ForEachHeapPage(const TableInfo& table,
                       const std::vector<uint8_t>* wanted, Visit visit) {
  std::vector<TypeId> types;
  for (const Column& column : table.schema.columns()) {
    types.push_back(column.type);
  }
  storage::HeapFile::ScanPagePin pin;
  std::vector<storage::HeapFile::RecordView> records;
  Batch batch;
  for (size_t page_index = 0;; ++page_index) {
    VDB_ASSIGN_OR_RETURN(bool more, table.heap->ReadPageForScanPinned(
                                        page_index, &pin, &records));
    if (!more) return Status::OK();
    batch.Reset(types, records.size());
    if (!records.empty()) {
      VDB_RETURN_NOT_OK(DeserializeRecordsInto(
          &records.front().data, sizeof(storage::HeapFile::RecordView),
          records.size(), table.schema, &batch, 0, wanted));
    }
    pin.Release();
    VDB_RETURN_NOT_OK(visit(records, batch));
  }
}

}  // namespace

Result<int64_t> IndexKeyFromValue(const Value& value) {
  if (value.is_null()) {
    return Status::NotSupported("NULL keys are not indexed");
  }
  if (value.type() != TypeId::kInt64 && value.type() != TypeId::kDate) {
    return Status::NotSupported(
        std::string("cannot index column of type ") +
        TypeIdName(value.type()));
  }
  return value.AsInt64();
}

std::vector<storage::ZoneSample> ComputeZoneSamples(const Tuple& tuple) {
  std::vector<storage::ZoneSample> samples;
  samples.reserve(tuple.size());
  for (const Value& value : tuple) {
    samples.push_back(
        storage::ZoneSample{value.NumericKey(), value.is_null()});
  }
  return samples;
}

Result<TableInfo*> Catalog::CreateTable(const std::string& name,
                                        const Schema& schema) {
  if (schema.NumColumns() == 0) {
    return Status::InvalidArgument("table must have at least one column");
  }
  for (const auto& table : tables_) {
    if (EqualsIgnoreCase(table->name, name)) {
      return Status::AlreadyExists("table '" + name + "' already exists");
    }
  }
  auto table = std::make_unique<TableInfo>();
  table->name = name;
  table->schema = schema;
  table->heap = std::make_unique<storage::HeapFile>(disk_, pool_);
  tables_.push_back(std::move(table));
  return tables_.back().get();
}

Result<TableInfo*> Catalog::GetTable(const std::string& name) const {
  for (const auto& table : tables_) {
    if (EqualsIgnoreCase(table->name, name)) return table.get();
  }
  return Status::NotFound("table '" + name + "' not found");
}

std::vector<TableInfo*> Catalog::Tables() const {
  std::vector<TableInfo*> result;
  result.reserve(tables_.size());
  for (const auto& table : tables_) result.push_back(table.get());
  return result;
}

Result<IndexInfo*> Catalog::CreateIndex(const std::string& index_name,
                                        const std::string& table_name,
                                        const std::string& column_name) {
  for (const auto& index : indexes_) {
    if (EqualsIgnoreCase(index->name, index_name)) {
      return Status::AlreadyExists("index '" + index_name +
                                   "' already exists");
    }
  }
  VDB_ASSIGN_OR_RETURN(TableInfo * table, GetTable(table_name));
  VDB_ASSIGN_OR_RETURN(size_t column_index,
                       table->schema.ColumnIndex(column_name));
  const TypeId type = table->schema.column(column_index).type;
  if (type != TypeId::kInt64 && type != TypeId::kDate) {
    return Status::NotSupported(
        std::string("cannot index column of type ") + TypeIdName(type));
  }
  auto index = std::make_unique<IndexInfo>();
  index->name = index_name;
  index->table = table;
  index->column_index = column_index;
  index->tree = std::make_unique<storage::BPlusTree>(disk_, pool_);
  // Back-fill from existing rows, decoding only the key column. Each heap
  // page is unpinned before its keys go into the tree, so the tree comes
  // out page-for-page as it did when the back-fill copied every record.
  std::vector<uint8_t> wanted(table->schema.NumColumns(), 0);
  wanted[column_index] = 1;
  storage::BPlusTree* tree = index->tree.get();
  VDB_RETURN_NOT_OK(ForEachHeapPage(
      *table, &wanted,
      [&](const std::vector<storage::HeapFile::RecordView>& records,
          const Batch& batch) {
        const ValueVector& keys = batch.columns[column_index];
        for (size_t r = 0; r < records.size(); ++r) {
          if (keys.IsNull(r)) continue;
          VDB_RETURN_NOT_OK(
              tree->Insert(keys.GetInt64(r), records[r].rid.Pack()));
        }
        return Status::OK();
      }));
  indexes_.push_back(std::move(index));
  table->indexes.push_back(indexes_.back().get());
  return indexes_.back().get();
}

Result<IndexInfo*> Catalog::GetIndex(const std::string& name) const {
  for (const auto& index : indexes_) {
    if (EqualsIgnoreCase(index->name, name)) return index.get();
  }
  return Status::NotFound("index '" + name + "' not found");
}

Status Catalog::Insert(TableInfo* table, const Tuple& tuple) {
  if (tuple.size() != table->schema.NumColumns()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.size()) +
        " does not match schema arity " +
        std::to_string(table->schema.NumColumns()));
  }
  const std::string record = SerializeTuple(tuple, table->schema);
  const std::vector<storage::ZoneSample> samples = ComputeZoneSamples(tuple);
  VDB_ASSIGN_OR_RETURN(storage::RecordId rid,
                       table->heap->Insert(record, &samples));
  for (IndexInfo* index : table->indexes) {
    const Value& value = tuple[index->column_index];
    if (value.is_null()) continue;
    VDB_ASSIGN_OR_RETURN(int64_t key, IndexKeyFromValue(value));
    VDB_RETURN_NOT_OK(index->tree->Insert(key, rid.Pack()));
  }
  return Status::OK();
}

Status Catalog::Delete(TableInfo* table, storage::RecordId rid) {
  if (table->indexes.empty()) return table->heap->Delete(rid);
  // The record's key values name the index entries to remove, so read it
  // before the heap slot is cleared.
  VDB_ASSIGN_OR_RETURN(std::string record, table->heap->Get(rid));
  VDB_RETURN_NOT_OK(table->heap->Delete(rid));
  VDB_ASSIGN_OR_RETURN(Tuple tuple, DeserializeTuple(record, table->schema));
  for (IndexInfo* index : table->indexes) {
    const Value& value = tuple[index->column_index];
    if (value.is_null()) continue;
    VDB_ASSIGN_OR_RETURN(int64_t key, IndexKeyFromValue(value));
    VDB_RETURN_NOT_OK(index->tree->Delete(key, rid.Pack()));
  }
  return Status::OK();
}

Status Catalog::Analyze(TableInfo* table, int histogram_buckets) {
  const size_t num_columns = table->schema.NumColumns();
  std::vector<ColumnStats> stats(num_columns);
  std::vector<std::vector<double>> keys(num_columns);
  std::vector<DistinctHashCounter> distinct(num_columns);
  std::vector<double> width_sums(num_columns, 0.0);
  uint64_t rows = 0;

  // One pass over the heap's pages into a reused batch; nothing is boxed.
  // HashAt and NumericKeyAt equal Value::Hash and Value::NumericKey, and
  // each column's values are visited in row order, so every statistic
  // (including the floating-point width sums) is the boxed pass's.
  VDB_RETURN_NOT_OK(ForEachHeapPage(
      *table, nullptr,
      [&](const std::vector<storage::HeapFile::RecordView>& records,
          const Batch& batch) {
        const size_t count = records.size();
        rows += count;
        for (size_t c = 0; c < num_columns; ++c) {
          const ValueVector& column = batch.columns[c];
          const bool is_string = column.type() == TypeId::kString;
          ColumnStats& cs = stats[c];
          for (size_t r = 0; r < count; ++r) {
            if (column.IsNull(r)) {
              cs.null_count++;
              continue;
            }
            cs.non_null_count++;
            keys[c].push_back(column.NumericKeyAt(r));
            distinct[c].Insert(column.HashAt(r));
            width_sums[c] +=
                is_string ? static_cast<double>(column.GetString(r).size())
                          : 8.0;
          }
        }
        return Status::OK();
      }));

  for (size_t c = 0; c < num_columns; ++c) {
    ColumnStats& cs = stats[c];
    cs.ndv = distinct[c].size();
    if (!keys[c].empty()) {
      const auto [mn, mx] =
          std::minmax_element(keys[c].begin(), keys[c].end());
      cs.min = *mn;
      cs.max = *mx;
      cs.avg_width = width_sums[c] / static_cast<double>(cs.non_null_count);
      cs.histogram = Histogram::Build(std::move(keys[c]), histogram_buckets);
    }
  }

  table->stats.row_count = rows;
  table->stats.page_count = table->heap->NumPages();
  table->stats.columns = std::move(stats);
  return Status::OK();
}

Status Catalog::AnalyzeAll(int histogram_buckets) {
  for (const auto& table : tables_) {
    VDB_RETURN_NOT_OK(Analyze(table.get(), histogram_buckets));
  }
  return Status::OK();
}

}  // namespace vdb::catalog
