// Sample statistics for the benchmark's reports.
//
// The tail rule, for per-layer timings: a timing is reported as its
// median and the highest percentile that still has at least ten
// samples beyond it, together with the sample count.  p99 needs 1000
// samples; a run with fewer reports the highest percentile of
// kTailLadder it can support, and says which one.  The end-to-end
// p99_ms is always the 99th percentile (see TailEstimate).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xtb {

/// Percentiles the tail rule may report, highest first.
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

/// Nearest-rank percentile of an ascending-sorted sample (p in (0,100]).
/// 0 for an empty sample.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double p);

/// Number of samples strictly beyond the nearest-rank p-th percentile
/// position (count - rank).
[[nodiscard]] std::size_t samples_beyond(std::size_t count, double p);

/// The tail rule: the highest percentile of kTailLadder, at most
/// `want_pct`, with at least 10 of `count` samples beyond it (50 when
/// none has).
[[nodiscard]] double tail_rule(std::size_t count, double want_pct = 99.0);

struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  /// The tail value and which percentile it is (0 when count == 0).
  double tail = 0.0;
  double tail_pct = 0.0;
};

/// Median plus the tail rule; caps the tail at `want_pct` (99 for the
/// p99 metrics) so a large sample does not report p99.9 instead.
[[nodiscard]] Summary summarize(std::vector<double> samples,
                                double want_pct = 99.0);

/// Median of a small sample (for repeated set-up timings).
[[nodiscard]] double median(std::vector<double> v);

/// Fixed-memory latency histogram: log-spaced buckets 0.1% wide from
/// 100 ns to ~17 minutes, so recording a million replies costs no
/// memory beyond the buckets (the benchmark's own samples must not
/// show up in the process's peak RSS).  Percentiles are nearest-rank
/// over buckets and read back at the bucket's geometric midpoint.
class LatencyHist {
 public:
  void add(double ms);
  void merge(const LatencyHist& other);
  [[nodiscard]] std::uint64_t count() const { return n_; }
  /// Same rule as summarize(): median and the highest percentile of
  /// kTailLadder (capped at want_pct) with >= 10 samples beyond it.
  [[nodiscard]] Summary summary(double want_pct = 99.0) const;
  [[nodiscard]] double percentile(double p) const;

 private:
  static constexpr double kMinMs = 1e-4;
  static constexpr double kRatio = 1.001;
  static constexpr std::size_t kBuckets = 23100;
  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(kBuckets);
  std::uint64_t n_ = 0;
  double max_ = 0.0;
};

}  // namespace xtb
