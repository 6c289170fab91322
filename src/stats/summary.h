// Scalar summary statistics used throughout the benches (the paper reports
// min/max/mean over seeds) and by the protocol's diagnostics.

#ifndef DPBR_STATS_SUMMARY_H_
#define DPBR_STATS_SUMMARY_H_

#include <cstddef>
#include <string>
#include <vector>

namespace dpbr {
namespace stats {

/// Accumulates a stream of doubles; O(1) memory (Welford online variance).
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const;
  double variance() const;  ///< sample variance (n-1 denominator)
  double stddev() const;
  double min() const;
  double max() const;

  /// "mean ± std [min, max]" with 3 decimals, the format the paper's
  /// tables use.
  std::string ToString() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of a vector (0 for empty input).
double Mean(const std::vector<double>& xs);

/// Sample standard deviation (0 for fewer than two values).
double StdDev(const std::vector<double>& xs);

/// In-place-free median (copies, nth_element).
double Median(std::vector<double> xs);

}  // namespace stats
}  // namespace dpbr

#endif  // DPBR_STATS_SUMMARY_H_
