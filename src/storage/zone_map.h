// Zone maps: per-page, per-column min/max/null statistics that let scans
// skip whole pages whose values cannot satisfy a sargable predicate
// (DESIGN.md §16). Statistics cover every row EVER inserted into a page —
// deletes widen nothing and recompute nothing — so the stored bounds are
// always a superset of the live values and a prune decision can never
// drop a visible row.

#ifndef VDB_STORAGE_ZONE_MAP_H_
#define VDB_STORAGE_ZONE_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vdb::storage {

/// One column value of one inserted row, reduced to the total-ordered
/// numeric key the catalog derives from it (Value::NumericKey). The key
/// order is monotone but not injective (e.g. long strings sharing an
/// 8-byte prefix collide), which is why only range containment — never
/// equality of keys — may justify a prune.
struct ZoneSample {
  double key = 0.0;
  bool is_null = false;
};

/// Folded statistics of one column over one page.
struct ZoneColumnStats {
  uint64_t null_count = 0;  // rows ever inserted with NULL in this column
  bool has_values = false;  // at least one non-NULL sample was folded
  double min = 0.0;         // valid only when has_values
  double max = 0.0;

  void Fold(const ZoneSample& sample);

  bool operator==(const ZoneColumnStats&) const = default;
};

/// Statistics of one heap page. A page is `tracked` only if every insert
/// that ever landed on it came with samples; a single schema-blind insert
/// (e.g. a direct HeapFile::Insert in a storage test) poisons the page,
/// which then never prunes.
struct ZoneEntry {
  bool tracked = true;
  uint64_t row_count = 0;  // rows ever inserted (deletes do not decrement)
  std::vector<ZoneColumnStats> columns;

  bool operator==(const ZoneEntry&) const = default;
};

/// One sargable conjunct lowered to the numeric-key domain.
struct ZonePredicate {
  enum class Kind : uint8_t {
    kLt,        // col <  key
    kLe,        // col <= key
    kGt,        // col >  key
    kGe,        // col >= key
    kEq,        // col =  key
    kIsNull,    // col IS NULL
    kIsNotNull, // col IS NOT NULL
    kInList,    // col IN (keys...)
  };

  Kind kind = Kind::kEq;
  size_t column = 0;     // column index within the table schema
  double key = 0.0;      // comparison kinds
  std::vector<double> keys;  // kInList
};

/// The conjuncts a physical scan may prune on. All predicates are
/// top-level AND members of the scan filter, so a page on which ANY of
/// them is false for every row can be skipped.
struct ScanPruneSpec {
  std::vector<ZonePredicate> predicates;

  bool empty() const { return predicates.empty(); }
};

/// True when `entry` proves no row of the page can pass `spec`.
/// Three-valued-logic rules (DESIGN.md §16):
///  - an untracked page never prunes;
///  - a comparison against a column with no non-NULL value ever inserted
///    prunes (the comparison is NULL for every row, and a top-level AND
///    conjunct that is NULL rejects the row);
///  - a NaN comparison key never prunes (NaN compares false both ways, so
///    min/max containment proves nothing); a NaN *sample* widened the
///    stored range to (-inf, +inf) at fold time;
///  - strict bound tests only (min > key, max < key): the numeric key is
///    monotone but possibly non-injective, so ties prove nothing.
bool ZonePageCanPrune(const ZoneEntry& entry, const ScanPruneSpec& spec);

/// Per-heap collection of zone entries, parallel to the heap's page list.
/// HeapFile appends an entry exactly when it appends a page, so
/// entries().size() == NumPages() always holds.
class ZoneMap {
 public:
  void AddPage() { entries_.emplace_back(); }

  /// Folds one inserted row into the last page's entry. `samples` is one
  /// ZoneSample per schema column, or nullptr for a schema-blind insert
  /// (which marks the page untracked forever).
  void FoldInsert(const std::vector<ZoneSample>* samples);

  const std::vector<ZoneEntry>& entries() const { return entries_; }

 private:
  std::vector<ZoneEntry> entries_;
};

}  // namespace vdb::storage

#endif  // VDB_STORAGE_ZONE_MAP_H_
