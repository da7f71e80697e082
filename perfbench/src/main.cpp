// xtbench: the repository benchmark program.
//
//   xtbench --workload NAME --seed N --seconds S --trace 0|1
//           [--workdir DIR] [--commit SHA] [--smoke]
//
// Untraced (--trace 0): sets the workload up kSetups times (once with
// --smoke) and measures each instance for an equal share of S seconds
// of closed loop.  The end-to-end metrics are CPU time and counts, not
// wall-clock figures: on a shared virtual machine the hypervisor steals
// CPU from the process for seconds to minutes at a time, which moves
// wall-clock throughput and latency by up to a factor of three but not
// the CPU time an operation costs (stolen time is not charged to the
// process).  The wall-clock figures (rps, p50_ms, p99_ms) are printed
// in the text report and are per-layer metrics of the traced run.
// Traced (--trace 1): one untraced S-second window, then a
// traced window on a fresh set-up (backend timing decorator, queue
// samplers) followed by the replays; prints the per-layer metrics and
// trace.overhead_pct, and writes the spans to the work directory.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 1 when any correctness or accounting check failed,
// 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.hpp"
#include "replay.hpp"

namespace xtb {

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "serve-hot") return make_serve_hot(opt);
  if (opt.workload == "serve-cold") return make_serve_cold(opt);
  if (opt.workload == "serve-routed") return make_serve_routed(opt);
  if (opt.workload == "session-churn") return make_session_churn(opt);
  if (opt.workload == "bulk-ingest") return make_bulk_ingest(opt);
  return nullptr;
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "xtbench: " << why
            << "\nusage: xtbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--workdir DIR] [--commit SHA] [--smoke]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("--seed wants an integer");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0) || opt.seconds > 600) usage("--seconds wants (0, 600]");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace wants 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--workdir") {
      opt.workdir = v;
    } else if (a == "--commit") {
      opt.commit = v;
    } else {
      usage("unknown flag " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!make_workload(opt)) usage("unknown workload " + opt.workload);
  return opt;
}

/// Set-up times of a run's instances, in seconds.
struct SetupTimes {
  std::vector<double> cpu, wall;
};

/// Sets one workload instance up and records its process CPU and wall
/// time.
std::unique_ptr<Workload> set_up(const Options& opt, SpanRecorder* rec, SetupTimes& times) {
  const ProcUsage u0 = ProcUsage::now();
  const std::int64_t t0 = now_ns();
  auto w = make_workload(opt);
  w->set_trace(rec);
  w->setup();
  times.wall.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  times.cpu.push_back((ProcUsage::now().cpu_ms - u0.cpu_ms) / 1e3);
  return w;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
  bool in_result = true;  // false: text report only
};

/// Process CPU per operation of the window, the client threads' share
/// taken out.
double cpu_ms_per_op(const Pass& p) {
  return p.ops > 0 ? (p.cpu_ms - p.client_cpu_ms) / p.ops : 0.0;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Machine CPU times when the run started (first call).
const CpuTimes& run_start() {
  static const CpuTimes start = CpuTimes::now();
  return start;
}

void print_result(const Options& opt, const Pass& pass, const std::vector<Metric>& metrics,
                  const std::vector<std::string>& violations) {
  std::cout << "workload " << opt.workload << " seed " << opt.seed << " ("
            << (opt.trace ? "traced" : "untraced") << ", " << opt.seconds
            << " s window, closed loop)\n";
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  std::cout << "  operations: attempted " << pass.attempted << ", ok " << pass.ok << ", failed "
            << pass.failed << "\n";
  for (const std::string& v : violations) std::cout << "  VIOLATION: " << v << "\n";
  std::cout << "provenance " << provenance_json(opt, pass, run_start()) << "\n";
  const bool correct = violations.empty() && pass.failed == 0 && pass.attempted > 0;
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
     << std::max<std::uint64_t>(pass.attempted, 1) << ", \"failed\": " << pass.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << fmt(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  std::exit(correct ? 0 : 1);
}

/// Which statistic p99_ms is, with the sample counts behind it.
std::string tail_note(const Pass& p) {
  std::size_t thinnest = p.latency_ms.count;
  for (const LatencyHist& h : p.slice_hists)
    thinnest = std::min(thinnest, static_cast<std::size_t>(h.count()));
  const bool slices = p.tail_estimate == TailEstimate::kSliceMedian;
  const std::size_t n = slices ? thinnest : p.latency_ms.count;
  std::string note = slices ? "(p99: median of the " + std::to_string(p.slice_hists.size()) +
                                  " slices' p99s; thinnest slice " + std::to_string(n) + " samples"
                            : "(p99 of " + std::to_string(n) + " samples";
  note += ", " + std::to_string(samples_beyond(n, 99.0)) + " beyond";
  return note + (samples_beyond(n, 99.0) < 10 ? "; THIN: fewer than 10 beyond)" : ")");
}

std::vector<Metric> end_to_end(const Pass& p, const SetupTimes& setup, double rss_mb,
                               double rss_window_mb) {
  std::string rates, p50s;
  for (const double r : p.slice_rps) rates += " " + fmt(r).substr(0, 8);
  for (const double q : p.slice_p50) p50s += " " + fmt(q).substr(0, 8);
  std::vector<Metric> m{
      {"cpu_ms_per_op", cpu_ms_per_op(p), "ms",
       "(process CPU " + fmt(p.cpu_ms).substr(0, 8) + " ms minus the client threads' " +
           fmt(p.client_cpu_ms).substr(0, 8) + " ms, over " + fmt(p.ops).substr(0, 8) +
           " operations)"},
      {"edge_cost_mean", p.edge_cost_mean, "hops", "(sum of dilation over guest edges / edges)"},
      {"setup_s", median(setup.cpu), "s",
       "(median process CPU of the run's set-ups; wall " + fmt(median(setup.wall)).substr(0, 6) +
           " s)"},
      {"peak_rss_mb", rss_mb, "MB",
       "(ru_maxrss after the first set-up; after its window " + fmt(rss_window_mb).substr(0, 6) +
           " MB)"},
      {"rps", p.rps, "1/s",
       "(wall clock; median of " + std::to_string(p.slice_rps.size()) + " slice rates:" + rates +
           "; " + std::to_string(p.latency_ms.count) + " operations)",
       false},
      {"p50_ms", p.latency_ms.p50, "ms", "(wall clock; median of slice medians:" + p50s + ")",
       false},
      {"p99_ms", p.latency_ms.tail, "ms", "(wall clock; " + tail_note(p).substr(1), false},
  };
  for (const auto& [name, v] : p.views) {
    std::string unit;
    for (const LayerMetric& lm : layer_metric_table())
      if (name == lm.name) unit = lm.unit;
    m.push_back({name, v, unit, "(wall clock)", false});
  }
  return m;
}

}  // namespace
}  // namespace xtb

int main(int argc, char** argv) {
  using namespace xtb;
  const Options opt = parse_args(argc, argv);
  (void)run_start();
  try {
    // Untraced: kSetups instances, each set up and then measured for an
    // equal share of the window.  Traced: one instance, one window, the
    // same shape as the traced pass that follows.
    const int instances = opt.trace || opt.smoke ? 1 : kSetups;
    SetupTimes setup_times;
    std::vector<Pass> parts;
    double rss_mb = 0.0, rss_window_mb = 0.0;
    for (int k = 0; k < instances; ++k) {
      auto w = set_up(opt, nullptr, setup_times);
      // The first set-up's peak: set-up is a fixed amount of work,
      // while the window's count of embeds, and with it the heap,
      // follows the CPU the host grants.
      if (k == 0) rss_mb = peak_rss_mb();
      parts.emplace_back();
      w->measure(opt.seconds / instances, parts.back());
      if (k == 0) rss_window_mb = peak_rss_mb();
    }
    Pass base = combine_instances(std::move(parts), opt.seconds);
    if (!opt.trace) {
      print_result(opt, base, end_to_end(base, setup_times, rss_mb, rss_window_mb), base.violations);
    }
    SpanRecorder rec;
    Pass traced;
    {
      auto w = set_up(opt, &rec, setup_times);
      w->measure(opt.seconds, traced);
      w->replay(traced);
    }
    const double base_cpu = cpu_ms_per_op(base);
    traced.layer["trace.overhead_pct"] =
        base_cpu > 0 ? (cpu_ms_per_op(traced) - base_cpu) / base_cpu * 100.0 : 0.0;
    // Wall-clock figures of the untraced window.
    traced.layer["rps"] = base.rps;
    traced.layer["p50_ms"] = base.latency_ms.p50;
    traced.layer["p99_ms"] = base.latency_ms.tail;
    traced.layer["proc.peak_rss_mb.window"] = rss_window_mb;
    for (const auto& [name, v] : base.views) traced.layer[name] = v;
    std::vector<Metric> m;
    for (const LayerMetric& lm : layer_metric_table()) {
      const auto it = traced.layer.find(lm.name);
      m.push_back({lm.name, it == traced.layer.end() ? 0.0 : it->second, lm.unit, lm.how});
    }
    const std::string spans_path =
        opt.workdir + "/spans-" + opt.workload + "-" + std::to_string(opt.seed) + ".json";
    if (!rec.write_json(spans_path)) traced.violation("cannot write " + spans_path);
    else std::cout << "spans written to " << spans_path << " (" << rec.size() << " spans)\n";
    std::vector<std::string> violations = base.violations;
    violations.insert(violations.end(), traced.violations.begin(), traced.violations.end());
    traced.attempted += base.attempted;
    traced.failed += base.failed;
    traced.ok += base.ok;
    print_result(opt, traced, m, violations);
  } catch (const std::exception& e) {
    std::cerr << "xtbench: " << e.what() << "\n";
    return 1;
  }
}
