// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent, request id).  Spans live in
// memory while the run measures and are written out as one JSON file
// when it ends.  A span's self time is its duration minus the part of
// its interval covered by its children (overlapping children are
// merged, and children are clipped to the parent's interval), which
// is how the per-layer report separates, say, an embed replay's SPLIT
// sweep from the rest of the embed.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace xtb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  const char* name = "";  // static string: recording never allocates it
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;  // index into the recorder's spans
  std::uint64_t request_id = 0;
  /// Workload-defined class of the request (the backend decorator
  /// stores guest size and theorem), for like-with-like comparisons.
  std::uint64_t key = 0;
  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Thread-safe append-only span store.  record() returns the span's
/// index, which children pass as their parent.
class SpanRecorder {
 public:
  std::uint32_t record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint32_t parent = kNoParent,
                       std::uint64_t request_id = 0, std::uint64_t key = 0);
  /// Opens a span whose end is filled by close(); for parents whose
  /// children are recorded before the parent ends.
  std::uint32_t open(const char* name, std::uint32_t parent = kNoParent,
                     std::uint64_t request_id = 0);
  void close(std::uint32_t index);

  [[nodiscard]] std::vector<Span> snapshot() const;
  [[nodiscard]] std::size_t size() const;
  /// Spans with this name that start inside [from_ns, to_ns].
  [[nodiscard]] std::vector<Span> named(const std::string& name, std::int64_t from_ns = 0,
                                        std::int64_t to_ns = INT64_MAX) const;
  /// Durations (ns) of those spans.
  [[nodiscard]] std::vector<double> durations_ns(const std::string& name,
                                                 std::int64_t from_ns = 0,
                                                 std::int64_t to_ns = INT64_MAX) const;
  /// Writes {"spans": [...]} with self times; returns false on I/O error.
  bool write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span (same indexing as `spans`), in ns.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

}  // namespace xtb
