#include "catalog/stats.h"

#include <algorithm>
#include <cmath>

namespace vdb::catalog {

namespace {

// Moves the order statistics at the ascending positions [first, last)
// into place within values[begin, end): select the middle position, then
// recurse on each side of it. O(n log k) for k positions, against
// O(n log n) for a full sort, and each selected slot holds exactly the
// value a sort would put there.
void SelectPositions(std::vector<double>& values, size_t begin, size_t end,
                     const size_t* first, const size_t* last) {
  if (first == last) return;
  const size_t* mid = first + (last - first) / 2;
  std::nth_element(values.begin() + begin, values.begin() + *mid,
                   values.begin() + end);
  SelectPositions(values, begin, *mid, first, mid);
  SelectPositions(values, *mid + 1, end, mid + 1, last);
}

}  // namespace

Histogram Histogram::Build(std::vector<double> values, int num_buckets) {
  Histogram hist;
  if (values.empty() || num_buckets < 1) return hist;
  const size_t n = values.size();
  // Store an evenly spaced sample of the sorted values (a sampled CDF).
  // Unlike deduplicated bucket bounds, repeated samples of a hot value
  // represent its mass correctly. The positions strictly increase because
  // samples <= n.
  const size_t samples =
      std::min<size_t>(static_cast<size_t>(num_buckets) + 1, n);
  std::vector<size_t> positions(samples);
  for (size_t s = 0; s < samples; ++s) {
    positions[s] = s * (n - 1) / (samples > 1 ? samples - 1 : 1);
  }
  SelectPositions(values, 0, n, positions.data(),
                  positions.data() + samples);
  hist.bounds_.reserve(samples + 1);
  for (size_t pos : positions) hist.bounds_.push_back(values[pos]);
  if (hist.bounds_.size() < 2) hist.bounds_.push_back(hist.bounds_.back());
  return hist;
}

double Histogram::FractionBelow(double v) const {
  if (empty()) return 0.5;
  if (v < bounds_.front()) return 0.0;
  if (v >= bounds_.back()) return 1.0;
  // bounds_ is a sorted sample of the column; the rank of v among the
  // samples estimates the CDF. upper_bound counts duplicates of v, so mass
  // concentrated on a single value produces the right jump.
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), v);
  const size_t i = static_cast<size_t>(it - bounds_.begin());  // >= 1
  // Sample j sits at quantile j / (size - 1); v lies between samples i-1
  // and i, so its CDF is ((i - 1) + within) / (size - 1).
  const double denom = static_cast<double>(bounds_.size()) - 1.0;
  const double lo = bounds_[i - 1];
  const double hi = bounds_[i];
  const double within = hi > lo ? (v - lo) / (hi - lo) : 0.0;
  return std::clamp((static_cast<double>(i) - 1.0 + within) / denom, 0.0,
                    1.0);
}

double Histogram::FractionBetween(double lo, double hi) const {
  if (empty()) return 0.3;  // optimizer default guess
  if (hi < lo) return 0.0;
  const double f = FractionBelow(hi) - FractionBelow(lo);
  return std::clamp(f, 0.0, 1.0);
}

}  // namespace vdb::catalog
