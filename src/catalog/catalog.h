// The catalog: tables (heap files + schemas), secondary B+-tree indexes,
// and per-column statistics, with insert/delete maintaining all three.

#ifndef VDB_CATALOG_CATALOG_H_
#define VDB_CATALOG_CATALOG_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/stats.h"
#include "catalog/value.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "util/result.h"

namespace vdb::catalog {

struct TableInfo;

/// A secondary B+-tree index over one column of a table. Index keys are
/// int64; only BIGINT and DATE columns are indexable (as in the OSDB TPC-H
/// schema the paper uses, where indexes are on keys and dates).
struct IndexInfo {
  std::string name;
  TableInfo* table = nullptr;
  size_t column_index = 0;
  std::unique_ptr<storage::BPlusTree> tree;
};

/// A base table: schema, heap storage, indexes, and statistics.
struct TableInfo {
  std::string name;
  Schema schema;
  std::unique_ptr<storage::HeapFile> heap;
  std::vector<IndexInfo*> indexes;  // owned by the Catalog
  TableStats stats;
};

/// The catalog owns all tables and indexes of one database instance.
/// It provides schema-aware tuple insertion (keeping indexes in sync) and
/// the ANALYZE pass that collects optimizer statistics.
class Catalog {
 public:
  Catalog(storage::DiskManager* disk, storage::BufferPool* pool)
      : disk_(disk), pool_(pool) {}

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty table. Fails on duplicate name or empty schema.
  Result<TableInfo*> CreateTable(const std::string& name,
                                 const Schema& schema);

  Result<TableInfo*> GetTable(const std::string& name) const;

  std::vector<TableInfo*> Tables() const;

  /// Creates a B+-tree index over `column_name` of `table_name` and
  /// back-fills it from existing rows. The column must be BIGINT or DATE.
  Result<IndexInfo*> CreateIndex(const std::string& index_name,
                                 const std::string& table_name,
                                 const std::string& column_name);

  Result<IndexInfo*> GetIndex(const std::string& name) const;

  /// Inserts a tuple, updating all indexes of the table.
  Status Insert(TableInfo* table, const Tuple& tuple);

  /// Deletes one record by id, removing its entries from all indexes of
  /// the table. The heap slot is not reclaimed (append-mostly design).
  Status Delete(TableInfo* table, storage::RecordId rid);

  /// Scans the table and recomputes its statistics (row/page counts, and
  /// per-column NDV, min/max, null fraction, equi-depth histogram).
  Status Analyze(TableInfo* table, int histogram_buckets = 32);

  /// Analyze every table.
  Status AnalyzeAll(int histogram_buckets = 32);

 private:
  storage::DiskManager* disk_;
  storage::BufferPool* pool_;
  std::vector<std::unique_ptr<TableInfo>> tables_;
  std::vector<std::unique_ptr<IndexInfo>> indexes_;
};

/// Extracts the int64 index key from a tuple column. Fails for NULLs and
/// non-indexable types.
Result<int64_t> IndexKeyFromValue(const Value& value);

/// One zone-map sample per column of `tuple` (Value::NumericKey plus the
/// null flag), the form HeapFile::Insert folds into its per-page
/// statistics.
std::vector<storage::ZoneSample> ComputeZoneSamples(const Tuple& tuple);

}  // namespace vdb::catalog

#endif  // VDB_CATALOG_CATALOG_H_
