#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace xtb {

namespace {
std::size_t nearest_rank(std::size_t count, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(count));
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, count);
}
}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t count, double p) {
  if (count == 0) return 0;
  return count - nearest_rank(count, p);
}

double tail_rule(std::size_t count, double want_pct) {
  for (const double p : kTailLadder)
    if (p <= want_pct && samples_beyond(count, p) >= 10) return p;
  return 50.0;
}

Summary summarize(std::vector<double> samples, double want_pct) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 50.0);
  s.tail_pct = tail_rule(s.count, want_pct);
  s.tail = percentile_sorted(samples, s.tail_pct);
  return s;
}

void LatencyHist::add(double ms) {
  const double x = std::max(ms, kMinMs);
  const auto i = static_cast<std::size_t>(std::log(x / kMinMs) / std::log(kRatio));
  ++counts_[std::min(i, kBuckets - 1)];
  ++n_;
  max_ = std::max(max_, ms);
}

void LatencyHist::merge(const LatencyHist& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  n_ += other.n_;
  max_ = std::max(max_, other.max_);
}

double LatencyHist::percentile(double p) const {
  if (n_ == 0) return 0.0;
  const std::size_t rank = nearest_rank(static_cast<std::size_t>(n_), p);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) return kMinMs * std::pow(kRatio, static_cast<double>(i) + 0.5);
  }
  return max_;
}

Summary LatencyHist::summary(double want_pct) const {
  Summary s;
  s.count = static_cast<std::size_t>(n_);
  if (n_ == 0) return s;
  s.p50 = percentile(50.0);
  s.tail_pct = tail_rule(s.count, want_pct);
  s.tail = percentile(s.tail_pct);
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace xtb
