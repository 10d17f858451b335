// Per-column statistics for the optimizer: row counts, NDV, min/max, and
// equi-depth histograms, computed by Analyze.

#ifndef VDB_CATALOG_STATS_H_
#define VDB_CATALOG_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace vdb::catalog {

/// Equi-depth histogram over a column's numeric key axis. Bucket i covers
/// (bounds[i], bounds[i+1]]; each bucket holds ~1/num_buckets of the rows.
class Histogram {
 public:
  Histogram() = default;

  /// Builds an equi-depth histogram from (a sample of) column values.
  /// `values` is consumed (partially reordered in place).
  static Histogram Build(std::vector<double> values, int num_buckets = 32);

  bool empty() const { return bounds_.size() < 2; }
  size_t NumBuckets() const {
    return bounds_.empty() ? 0 : bounds_.size() - 1;
  }

  double min() const { return bounds_.empty() ? 0.0 : bounds_.front(); }
  double max() const { return bounds_.empty() ? 0.0 : bounds_.back(); }

  /// Estimated fraction of rows with value <= v (linear interpolation
  /// within buckets). Returns 0/1 outside the value range.
  double FractionBelow(double v) const;

  /// Estimated fraction of rows in [lo, hi].
  double FractionBetween(double lo, double hi) const;

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
};

/// Per-column statistics gathered by Analyze.
struct ColumnStats {
  uint64_t non_null_count = 0;
  uint64_t null_count = 0;
  uint64_t ndv = 0;  // number of distinct values
  double min = 0.0;  // on the NumericKey axis
  double max = 0.0;
  double avg_width = 8.0;
  Histogram histogram;

  double NullFraction() const {
    const uint64_t total = non_null_count + null_count;
    return total == 0 ? 0.0
                      : static_cast<double>(null_count) /
                            static_cast<double>(total);
  }
};

/// Per-table statistics.
struct TableStats {
  uint64_t row_count = 0;
  uint64_t page_count = 0;
  std::vector<ColumnStats> columns;

  bool Analyzed() const { return !columns.empty(); }
};

}  // namespace vdb::catalog

#endif  // VDB_CATALOG_STATS_H_
