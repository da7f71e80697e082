// Shared machinery of the benchmark program: run options, the pass
// result every workload fills, process accounting, the EmbedBackend
// timing decorator, and the closed-loop client.
//
// Load model: closed loop.  Each connection keeps at most `window`
// requests in flight and sends the next only when a reply arrives, so
// every caller waits for its answer.  One generator process, at most
// nproc client threads and connections; the servers run inside the
// same process so the traced run can wrap their backends.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "json.hpp"
#include "net/backend.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/session.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace xtb {

/// Slices of the measured window (see fold_slices).
inline constexpr std::size_t kSlices = 5;
/// Set-up instances of an untraced run (one with --smoke); setup_s is
/// the median of their set-up times.
inline constexpr int kSetups = 3;

/// How a workload turns its window's latencies into p99_ms.  Each
/// workload fixes its estimator, so the figure is the same statistic
/// whatever the run's sample count: the median of the slices' p99s
/// where every slice holds thousands of replies (serve-hot,
/// serve-routed), else the p99 of the whole window.
enum class TailEstimate { kSliceMedian, kWindow };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".";  // scratch files (corpus, span dumps)
  std::string commit = "unknown";
};

/// One measured pass of a workload.
struct Pass {
  // End-to-end.
  double window_s = 0.0;
  double rps = 0.0;           // operations completed per second
  Summary latency_ms;         // per-operation client latency
  std::vector<double> slice_rps, slice_p50;  // per slice of the window
  TailEstimate tail_estimate = TailEstimate::kWindow;
  std::vector<LatencyHist> slice_hists;  // the window's latencies, by slice
  double work_per_sample = 1.0;  // units of rps per latency sample
  double ops = 0.0;              // units of rps completed in the window
  double cpu_ms = 0.0;           // process CPU time over the window
  double client_cpu_ms = 0.0;    // of which the closed-loop client threads'
  double edge_cost_mean = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  /// Workload-specific end-to-end views (mutate_*, read_*,
  /// trees_per_s), also reported as per-layer metrics.
  std::map<std::string, double> views;
  /// Per-layer metrics (traced pass only).
  std::map<std::string, double> layer;
  /// Server-side thread layout, for provenance.
  std::map<std::string, long long> layout;

  void violation(std::string what) {
    if (violations.size() < 64) violations.push_back(std::move(what));
    else if (violations.size() == 64) violations.push_back("... more violations");
  }
};

/// A workload: set-up (inputs, servers, warm-up; timed by the harness
/// and repeated), one measured window, and the traced run's replays.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual void measure(double seconds, Pass& out) = 0;
  /// Replays sampled inputs through the public calls behind each layer
  /// (traced pass only, after measure()).
  virtual void replay(Pass& out) = 0;

  void set_trace(SpanRecorder* rec) { rec_ = rec; }

 protected:
  SpanRecorder* rec_ = nullptr;  // null in untraced passes
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& opt);

// ---- factories (serve.cpp, session_bulk.cpp) --------------------------
[[nodiscard]] std::unique_ptr<Workload> make_serve_hot(const Options& opt);
[[nodiscard]] std::unique_ptr<Workload> make_serve_cold(const Options& opt);
[[nodiscard]] std::unique_ptr<Workload> make_serve_routed(const Options& opt);
[[nodiscard]] std::unique_ptr<Workload> make_session_churn(const Options& opt);
[[nodiscard]] std::unique_ptr<Workload> make_bulk_ingest(const Options& opt);

// ---- process accounting ------------------------------------------------

[[nodiscard]] double peak_rss_mb();
[[nodiscard]] long process_threads();

/// CPU time of the calling thread.
[[nodiscard]] double thread_cpu_ms();

struct ProcUsage {
  double cpu_ms = 0.0;
  double ctx_switches = 0.0;
  static ProcUsage now();
};

/// Machine-wide CPU time from /proc/stat: all jiffies and the ones the
/// hypervisor stole.  A run on a virtual machine reports the stolen
/// share next to its numbers.
struct CpuTimes {
  double total = 0.0;
  double steal = 0.0;
  static CpuTimes now();
};

/// Provenance shared by every workload's output (one schema).
[[nodiscard]] std::string provenance_json(const Options& opt, const Pass& pass,
                                          const CpuTimes& since);

// ---- EmbedBackend timing decorator ------------------------------------

/// Span key of a backend request: guest size and theorem.
[[nodiscard]] inline std::uint64_t span_key(xt::NodeId n, xt::Theorem t) {
  return (static_cast<std::uint64_t>(n) << 2) | static_cast<std::uint64_t>(t);
}

/// Wraps a backend (ServiceBackend or Router) and records one
/// `span_name` span per submit, from submit to the done callback.
/// Everything else forwards, so inline hits keep probing the wrapped
/// backend's cache.
class TimedBackend final : public xt::EmbedBackend {
 public:
  TimedBackend(xt::EmbedBackend& inner, SpanRecorder& rec, const char* span_name)
      : inner_(inner), rec_(rec), span_name_(span_name) {}
  void submit(xt::EmbedRequest request, bool want_embedding,
              std::function<void(xt::WireStatus, std::string)> done) override;
  [[nodiscard]] xt::CanonicalCache* canonical_cache() override {
    return inner_.canonical_cache();
  }
  [[nodiscard]] xt::NodeId cache_load() const override { return inner_.cache_load(); }
  [[nodiscard]] bool routes_by_digest() const override {
    return inner_.routes_by_digest();
  }
  [[nodiscard]] std::string stats_json() const override { return inner_.stats_json(); }
  [[nodiscard]] const char* stats_key() const override { return inner_.stats_key(); }

 private:
  xt::EmbedBackend& inner_;
  SpanRecorder& rec_;
  const char* span_name_;
  std::atomic<std::uint64_t> next_id_{1};
};

/// One in-process embed server: EmbeddingService behind a
/// ServiceBackend (wrapped by a TimedBackend in traced passes) and a
/// NetServer, optionally with a SessionManager.  Stops in dependency
/// order: edge first, then sessions, then the service (which answers
/// anything still queued through the still-alive decorator).
struct Hosted {
  std::unique_ptr<xt::EmbeddingService> service;
  std::unique_ptr<xt::ServiceBackend> backend;
  std::unique_ptr<TimedBackend> timed;
  std::unique_ptr<xt::SessionManager> sessions;
  std::unique_ptr<xt::NetServer> server;

  Hosted() = default;
  Hosted(const Hosted&) = delete;
  Hosted& operator=(const Hosted&) = delete;
  ~Hosted();
  [[nodiscard]] std::uint16_t port() const;
};

/// Starts a hosted server.  `rec` non-null wraps the backend in a
/// TimedBackend recording "service.backend" spans.
[[nodiscard]] std::unique_ptr<Hosted> host_server(
    const xt::ServiceConfig& service_cfg, xt::NetServerConfig net_cfg,
    SpanRecorder* rec, const xt::SessionConfig* session_cfg = nullptr);

// ---- client connections -------------------------------------------------

/// One reply as the client sees it: xtn1 status code (WireStatus) or
/// the HTTP status mapped to 0 for 200, plus the JSON body.
struct Reply {
  int code = -1;
  std::uint32_t request_id = 0;
  std::string body;
};

/// One loopback connection of the pipelined closed loop, speaking
/// xtn1 or HTTP/1.1.  Blocking single exchanges use xt::NetClient.
class Channel {
 public:
  explicit Channel(bool http) : http_(http) {}
  bool connect(std::uint16_t port, std::string* error);
  bool send(std::string_view bytes, std::string* error);
  /// Extracts a reply already buffered: 1 taken, 0 need more bytes,
  /// -1 protocol error.
  int try_take(Reply* out, std::string* error);
  /// One read of whatever the socket holds into the buffer.
  bool read_some(std::string* error);
  /// When the data of the last read_some() reached the socket (kernel
  /// receive timestamp, steady clock), so that a reply's latency does not
  /// include the client's own wait to be scheduled and to poll.
  [[nodiscard]] std::int64_t rx_ns() const { return rx_ns_; }
  [[nodiscard]] int fd() const { return client_.fd(); }
  [[nodiscard]] bool http() const { return http_; }

 private:
  bool http_;
  xt::NetClient client_;
  xt::FrameParser frames_;  // xtn1 replies
  std::string buf_;         // HTTP response bytes not yet consumed
  std::int64_t rx_ns_ = 0;
};

/// xtn1 request frame for an embed (format = payload form, code =
/// theorem).  request_id sits at byte offset 16 for patching.
[[nodiscard]] std::string embed_frame(std::string_view payload,
                                      std::uint8_t format, xt::Theorem t,
                                      bool want_embedding);
/// Session-op request frame (formats 3-6).
[[nodiscard]] std::string session_frame(xt::WireFormat format,
                                        std::string_view payload);
/// HTTP/1.1 POST /embed request bytes.
[[nodiscard]] std::string embed_http(std::string_view body, xt::Theorem t,
                                     bool want_embedding);
void patch_request_id(std::string& frame, std::uint32_t id);

/// A request to send: bytes plus an opaque tag handed back with the
/// reply.  `bytes` may point into long-lived storage.
struct Outgoing {
  std::string_view bytes;
  std::uint64_t tag = 0;
};

struct LoopStats {
  /// Latencies of the replies received inside the window, by the slice
  /// of the window they arrived in.
  std::vector<LatencyHist> slices = std::vector<LatencyHist>(kSlices);
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;            // replies the check accepted
  std::uint64_t failed = 0;        // rejected replies + transport errors
  double client_cpu_ms = 0.0;      // the loop thread's CPU time (first entry only)
  std::vector<std::string> violations;
};

/// Closed loop on one channel: keeps `window` requests in flight until
/// `end_ns` (or `max_requests`), then drains.  `next(i)` produces the
/// i-th request; `check(tag, reply, rtt_ns)` returns "" when the reply
/// is correct.  Latencies count replies sent at or after `start_ns` and
/// received by `end_ns`.
LoopStats run_closed_loop(
    Channel& ch, std::size_t window, std::int64_t start_ns, std::int64_t end_ns,
    std::uint64_t max_requests, const std::function<Outgoing(std::uint64_t)>& next,
    const std::function<std::string(std::uint64_t, const Reply&, std::int64_t)>& check);

/// One connection of a multiplexed closed loop.
struct LoopConn {
  Channel* ch = nullptr;
  std::function<Outgoing(std::uint64_t)> next;
  std::function<std::string(std::uint64_t, const Reply&, std::int64_t)> check;
};

/// The same closed loop over several connections from one thread
/// (poll), so a workload can keep its client threads below the core
/// count.  Returns one LoopStats per connection.
std::vector<LoopStats> run_closed_loops(std::vector<LoopConn>& conns, std::size_t window,
                                        std::int64_t start_ns, std::int64_t end_ns,
                                        std::uint64_t max_requests);

/// GET /stats from a server, parsed.
[[nodiscard]] std::optional<JsonValue> fetch_stats(std::uint16_t port,
                                                   std::string* error);

/// Sum of LoopStats into a Pass (counts, then fold_slices).
void fold_loops(const std::vector<LoopStats>& loops, double window_s, Pass& out);

/// The window is cut into equal slices: rps is the median of the
/// slices' completion rates (latency samples times `work_per_sample`,
/// for workloads whose unit of work is smaller than one timed call)
/// and p50 the median of their medians, so one disturbed slice does not
/// move the run's figure.  p99 follows out.tail_estimate and is always
/// the 99th percentile.
void fold_slices(std::vector<LatencyHist> slices, double window_s, Pass& out,
                 double work_per_sample = 1.0);

/// One pass from the windows of several set-up instances: fold_slices
/// over all their slices with the instances' tail estimate (the
/// workload views are medians over instances), counts and violations
/// add up.  Set-up decides thread
/// placement for a whole window, so medians across instances keep one
/// unlucky placement from deciding the run.
[[nodiscard]] Pass combine_instances(std::vector<Pass> parts, double window_s);

/// Slice of [start_ns, end_ns) that time t falls in.
[[nodiscard]] std::size_t slice_of(std::int64_t t, std::int64_t start_ns, std::int64_t end_ns);

}  // namespace xtb
