#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace xtb {

std::uint32_t SpanRecorder::record(const char* name, std::int64_t start_ns,
                                   std::int64_t end_ns, std::uint32_t parent,
                                   std::uint64_t request_id, std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request_id, key});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::uint32_t SpanRecorder::open(const char* name, std::uint32_t parent,
                                 std::uint64_t request_id) {
  const std::int64_t t = now_ns();
  return record(name, t, t, parent, request_id);
}

void SpanRecorder::close(std::uint32_t index) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end_ns = t;
}

std::vector<Span> SpanRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<Span> SpanRecorder::named(const std::string& name, std::int64_t from_ns,
                                      std::int64_t to_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& s : spans_)
    if (name == s.name && s.start_ns >= from_ns && s.start_ns <= to_ns) out.push_back(s);
  return out;
}

std::vector<double> SpanRecorder::durations_ns(const std::string& name, std::int64_t from_ns,
                                               std::int64_t to_ns) const {
  std::vector<double> out;
  for (const Span& s : named(name, from_ns, to_ns))
    out.push_back(static_cast<double>(s.duration_ns()));
  return out;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent || s.parent >= spans.size()) continue;
    const Span& p = spans[s.parent];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) kids[s.parent].emplace_back(a, b);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

bool SpanRecorder::write_json(const std::string& path) const {
  const std::vector<Span> spans = snapshot();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::ofstream os(path);
  if (!os) return false;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
       << "\", \"start_ns\": " << (s.start_ns - t0)
       << ", \"end_ns\": " << (s.end_ns - t0) << ", \"parent\": "
       << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
       << ", \"request_id\": " << s.request_id << ", \"key\": " << s.key
       << ", \"self_ns\": " << self[i] << "}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace xtb
