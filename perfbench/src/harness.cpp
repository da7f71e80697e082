#include "harness.hpp"

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <thread>

#include "net/wire.hpp"

namespace xtb {

// ---- process accounting ------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

long process_threads() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("Threads:", 0) == 0) return std::stol(line.substr(8));
  return 0;
}

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

ProcUsage ProcUsage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.cpu_ms = (static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3) +
             (static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

namespace {

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

CpuTimes CpuTimes::now() {
  std::ifstream is("/proc/stat");
  std::string cpu;
  CpuTimes t;
  is >> cpu;
  for (int i = 0; i < 8 && is; ++i) {
    double v = 0;
    is >> v;
    t.total += v;
    if (i == 7) t.steal = v;  // user nice system idle iowait irq softirq steal
  }
  return t;
}

std::string provenance_json(const Options& opt, const Pass& pass, const CpuTimes& since) {
  const CpuTimes now = CpuTimes::now();
  const double total = now.total - since.total;
  std::ostringstream os;
  os << "{\"workload\": " << quoted(opt.workload) << ", \"seed\": " << opt.seed
     << ", \"seconds\": " << opt.seconds << ", \"trace\": " << (opt.trace ? 1 : 0)
     << ", \"smoke\": " << (opt.smoke ? 1 : 0)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << quoted(cpu_model())
     << ", \"compiler\": " << quoted(XTB_COMPILER)
     << ", \"build_type\": " << quoted(XTB_BUILD_TYPE)
     << ", \"cxx_flags\": " << quoted(XTB_CXX_FLAGS)
     << ", \"commit\": " << quoted(opt.commit)
     << ", \"host_steal_pct\": " << (total > 0 ? 100.0 * (now.steal - since.steal) / total : 0.0)
     << ", \"server\": {";
  bool first = true;
  for (const auto& [k, v] : pass.layout) {
    os << (first ? "" : ", ") << quoted(k) << ": " << v;
    first = false;
  }
  os << "}}";
  return os.str();
}

// ---- TimedBackend -------------------------------------------------------

void TimedBackend::submit(xt::EmbedRequest request, bool want_embedding,
                          std::function<void(xt::WireStatus, std::string)> done) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t key = span_key(request.tree.num_nodes(), request.theorem);
  const std::int64_t t0 = now_ns();
  inner_.submit(std::move(request), want_embedding,
                [this, t0, id, key, done = std::move(done)](xt::WireStatus s,
                                                            std::string body) {
                  rec_.record(span_name_, t0, now_ns(), kNoParent, id, key);
                  done(s, std::move(body));
                });
}

// ---- hosting ----------------------------------------------------------------

Hosted::~Hosted() {
  if (server) server->stop();
  if (sessions) sessions->shutdown(true);
  if (service) service->shutdown(true);
}

std::uint16_t Hosted::port() const { return server->port(); }

std::unique_ptr<Hosted> host_server(const xt::ServiceConfig& service_cfg,
                                    xt::NetServerConfig net_cfg, SpanRecorder* rec,
                                    const xt::SessionConfig* session_cfg) {
  auto h = std::make_unique<Hosted>();
  h->service = std::make_unique<xt::EmbeddingService>(service_cfg);
  h->backend = std::make_unique<xt::ServiceBackend>(*h->service);
  xt::EmbedBackend* backend = h->backend.get();
  if (rec != nullptr) {
    h->timed = std::make_unique<TimedBackend>(*backend, *rec, "service.backend");
    backend = h->timed.get();
  }
  if (session_cfg != nullptr) {
    h->sessions = std::make_unique<xt::SessionManager>(*session_cfg);
    net_cfg.sessions = h->sessions.get();
  }
  h->server = std::make_unique<xt::NetServer>(*backend, net_cfg);
  h->server->start();
  return h;
}

// ---- request encoding -----------------------------------------------------

std::string embed_frame(std::string_view payload, std::uint8_t format,
                        xt::Theorem t, bool want_embedding) {
  xt::WireFrame h;
  h.format = format;
  h.code = static_cast<std::uint8_t>(t);
  h.flags = want_embedding ? xt::kWireFlagWantEmbedding : 0;
  std::string out;
  xt::encode_frame_into(out, h, payload);
  return out;
}

std::string session_frame(xt::WireFormat format, std::string_view payload) {
  xt::WireFrame h;
  h.format = static_cast<std::uint8_t>(format);
  std::string out;
  xt::encode_frame_into(out, h, payload);
  return out;
}

std::string embed_http(std::string_view body, xt::Theorem t, bool want_embedding) {
  static const char* const kNames[] = {"t1", "t2", "t3"};
  std::string out = "POST /embed?theorem=";
  out += kNames[static_cast<int>(t)];
  if (want_embedding) out += "&want_embedding=1";
  out += " HTTP/1.1\r\nHost: localhost\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\n\r\n";
  out += body;
  return out;
}

void patch_request_id(std::string& frame, std::uint32_t id) {
  std::memcpy(frame.data() + 16, &id, 4);  // little-endian hosts only
}

// ---- Channel ---------------------------------------------------------------

bool Channel::connect(std::uint16_t port, std::string* error) {
  if (!client_.connect("127.0.0.1", port, error, 5000)) return false;
  client_.set_recv_timeout_ms(60000);
  const int on = 1;
  if (::setsockopt(client_.fd(), SOL_SOCKET, SO_TIMESTAMPNS, &on, sizeof on) != 0) {
    *error = std::string("SO_TIMESTAMPNS: ") + std::strerror(errno);
    return false;
  }
  return true;
}

bool Channel::send(std::string_view bytes, std::string* error) {
  return client_.send_all(bytes, error);
}

int Channel::try_take(Reply* out, std::string* error) {
  if (!http_) {
    xt::WireFrame f;
    switch (frames_.next(&f)) {
      case xt::FrameParser::Result::kFrame:
        out->code = f.code;
        out->request_id = f.request_id;
        out->body = std::move(f.payload);
        return 1;
      case xt::FrameParser::Result::kNeedMore:
        return 0;
      case xt::FrameParser::Result::kError:
        *error = "reply framing: " + frames_.error();
        return -1;
    }
    return -1;
  }
  // Content-Length framed HTTP/1.1 responses, possibly pipelined.
  const std::size_t head = buf_.find("\r\n\r\n");
  if (head == std::string::npos) return 0;
  const std::string_view h(buf_.data(), head);
  if (h.size() < 12 || h.substr(0, 5) != "HTTP/") {
    *error = "malformed HTTP status line";
    return -1;
  }
  std::size_t cl = std::string::npos;
  for (std::size_t i = 0; i + 15 <= h.size(); ++i) {
    if (strncasecmp(h.data() + i, "content-length:", 15) == 0) {
      cl = i + 15;
      break;
    }
  }
  if (cl == std::string::npos) {
    *error = "HTTP response without Content-Length";
    return -1;
  }
  const auto body_len = static_cast<std::size_t>(std::atol(h.data() + cl));
  if (buf_.size() < head + 4 + body_len) return 0;
  out->code = std::atoi(std::string(h.substr(9, 3)).c_str());
  if (out->code == 200) out->code = 0;
  out->request_id = 0;
  out->body.assign(buf_, head + 4, body_len);
  buf_.erase(0, head + 4 + body_len);
  return 1;
}

bool Channel::read_some(std::string* error) {
  char tmp[65536];
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(timespec))];
  iovec iov{tmp, sizeof tmp};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof control;
  const ssize_t got = ::recvmsg(client_.fd(), &msg, 0);
  if (got <= 0) {
    *error = got == 0 ? "connection closed" : std::string("recv: ") + std::strerror(errno);
    return false;
  }
  // The timestamp is on the realtime clock; move it to the steady clock
  // the send times use.
  const auto to_ns = [](const timespec& t) -> std::int64_t {
    return t.tv_sec * 1'000'000'000LL + t.tv_nsec;
  };
  timespec real{};
  ::clock_gettime(CLOCK_REALTIME, &real);
  const std::int64_t now = now_ns();
  rx_ns_ = now;
  for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr; c = CMSG_NXTHDR(&msg, c)) {
    if (c->cmsg_level != SOL_SOCKET || c->cmsg_type != SCM_TIMESTAMPNS) continue;
    timespec ts{};
    std::memcpy(&ts, CMSG_DATA(c), sizeof ts);
    rx_ns_ = std::min(now, to_ns(ts) - (to_ns(real) - now));
  }
  if (http_) buf_.append(tmp, static_cast<std::size_t>(got));
  else frames_.feed(std::string_view(tmp, static_cast<std::size_t>(got)));
  return true;
}

// ---- closed loop -------------------------------------------------------------

LoopStats run_closed_loop(
    Channel& ch, std::size_t window, std::int64_t start_ns, std::int64_t end_ns,
    std::uint64_t max_requests, const std::function<Outgoing(std::uint64_t)>& next,
    const std::function<std::string(std::uint64_t, const Reply&, std::int64_t)>& check) {
  std::vector<LoopConn> one{{&ch, next, check}};
  return run_closed_loops(one, window, start_ns, end_ns, max_requests)[0];
}

std::vector<LoopStats> run_closed_loops(std::vector<LoopConn>& conns, std::size_t window,
                                        std::int64_t start_ns, std::int64_t end_ns,
                                        std::uint64_t max_requests) {
  struct InFlight {
    std::int64_t send_ns;
    std::uint64_t index;
    std::uint64_t tag;
  };
  struct State {
    std::deque<InFlight> inflight;
    std::uint64_t i = 0;
    bool broken = false;
    std::string error;
  };
  const double cpu0 = thread_cpu_ms();
  std::vector<LoopStats> st(conns.size());
  std::vector<State> s(conns.size());
  const auto may_send = [&](std::size_t c) {
    return !s[c].broken && s[c].i < max_requests && now_ns() < end_ns;
  };
  const auto send_one = [&](std::size_t c) {
    const Outgoing o = conns[c].next(s[c].i);
    const std::int64_t t = now_ns();
    if (!conns[c].ch->send(o.bytes, &s[c].error)) {
      s[c].broken = true;
      return;
    }
    s[c].inflight.push_back({t, s[c].i, o.tag});
    ++st[c].sent;
    ++s[c].i;
  };
  // Handles every reply already buffered on connection c.
  const auto drain = [&](std::size_t c) {
    while (!s[c].broken && !s[c].inflight.empty()) {
      Reply r;
      const int got = conns[c].ch->try_take(&r, &s[c].error);
      if (got == 0) return;
      if (got < 0) {
        s[c].broken = true;
        return;
      }
      const std::int64_t t = conns[c].ch->rx_ns();
      const InFlight f = s[c].inflight.front();
      s[c].inflight.pop_front();
      std::string bad;
      if (!conns[c].ch->http() && r.request_id != static_cast<std::uint32_t>(f.index))
        bad = "reply out of order: request_id " + std::to_string(r.request_id) +
              " for request " + std::to_string(f.index);
      else
        bad = conns[c].check(f.tag, r, t - f.send_ns);
      if (bad.empty()) {
        ++st[c].ok;
      } else {
        ++st[c].failed;
        if (st[c].violations.size() < 16) st[c].violations.push_back(std::move(bad));
      }
      if (f.send_ns >= start_ns && t <= end_ns)
        st[c].slices[slice_of(t, start_ns, end_ns)].add(static_cast<double>(t - f.send_ns) / 1e6);
      if (may_send(c)) send_one(c);
    }
  };
  for (std::size_t c = 0; c < conns.size(); ++c)
    while (s[c].inflight.size() < window && may_send(c)) send_one(c);
  std::vector<pollfd> fds;
  std::vector<std::size_t> who;
  for (;;) {
    fds.clear();
    who.clear();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (s[c].broken || s[c].inflight.empty()) continue;
      fds.push_back({conns[c].ch->fd(), POLLIN, 0});
      who.push_back(c);
    }
    if (fds.empty()) break;
    const int ready = ::poll(fds.data(), fds.size(), 60000);
    if (ready <= 0) {
      for (const std::size_t c : who) {
        s[c].broken = true;
        s[c].error = ready == 0 ? "no reply within 60 s" : std::string("poll: ") + std::strerror(errno);
      }
      break;
    }
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      const std::size_t c = who[k];
      if (!conns[c].ch->read_some(&s[c].error)) {
        s[c].broken = true;
        continue;
      }
      drain(c);
    }
  }
  for (std::size_t c = 0; c < conns.size(); ++c) {
    if (!s[c].broken) continue;
    st[c].failed += s[c].inflight.size();
    st[c].violations.push_back("transport: " + s[c].error);
  }
  if (!st.empty()) st[0].client_cpu_ms = thread_cpu_ms() - cpu0;
  return st;
}

std::optional<JsonValue> fetch_stats(std::uint16_t port, std::string* error) {
  xt::NetClient client;
  if (!client.connect("127.0.0.1", port, error, 5000)) return std::nullopt;
  client.set_recv_timeout_ms(60000);
  xt::NetClient::HttpResult r;
  if (!client.http("GET", "/stats", "", &r, error)) return std::nullopt;
  if (r.status != 200) {
    *error = "/stats answered HTTP " + std::to_string(r.status);
    return std::nullopt;
  }
  return parse_json(r.body, error);
}

void fold_loops(const std::vector<LoopStats>& loops, double window_s, Pass& out) {
  std::vector<LatencyHist> slices(kSlices);
  for (const LoopStats& l : loops) {
    for (std::size_t k = 0; k < kSlices; ++k) slices[k].merge(l.slices[k]);
    out.attempted += l.sent;
    out.ok += l.ok;
    out.failed += l.failed;
    out.client_cpu_ms += l.client_cpu_ms;
    for (const std::string& v : l.violations) out.violation(v);
  }
  fold_slices(std::move(slices), window_s, out);
}

std::size_t slice_of(std::int64_t t, std::int64_t start_ns, std::int64_t end_ns) {
  if (end_ns <= start_ns || end_ns - start_ns > 3'600'000'000'000LL) return 0;  // unbounded warm-up
  const std::int64_t k = (t - start_ns) * static_cast<std::int64_t>(kSlices) / (end_ns - start_ns);
  return static_cast<std::size_t>(std::clamp<std::int64_t>(k, 0, kSlices - 1));
}

void fold_slices(std::vector<LatencyHist> slices, double window_s, Pass& out,
                 double work_per_sample) {
  out.window_s = window_s;
  out.work_per_sample = work_per_sample;
  out.slice_rps.clear();
  out.slice_p50.clear();
  LatencyHist all;
  std::vector<double> tails;
  const double slice_s = window_s / static_cast<double>(slices.size());
  for (const LatencyHist& h : slices) {
    all.merge(h);
    out.slice_rps.push_back(static_cast<double>(h.count()) * work_per_sample / slice_s);
    if (h.count() == 0) continue;
    out.slice_p50.push_back(h.percentile(50.0));
    tails.push_back(h.percentile(99.0));
  }
  out.rps = median(out.slice_rps);
  out.ops = static_cast<double>(all.count()) * work_per_sample;
  out.latency_ms.count = static_cast<std::size_t>(all.count());
  out.latency_ms.p50 = median(out.slice_p50);
  out.latency_ms.tail_pct = 99.0;
  out.latency_ms.tail = out.tail_estimate == TailEstimate::kSliceMedian ? median(tails)
                                                                         : all.percentile(99.0);
  out.slice_hists = std::move(slices);
}

Pass combine_instances(std::vector<Pass> parts, double window_s) {
  Pass out;
  out.tail_estimate = parts.back().tail_estimate;
  std::vector<LatencyHist> slices;
  std::map<std::string, std::vector<double>> views;
  double ops = 0.0;
  for (Pass& p : parts) {
    ops += p.ops;
    out.attempted += p.attempted;
    out.ok += p.ok;
    out.failed += p.failed;
    out.cpu_ms += p.cpu_ms;
    out.client_cpu_ms += p.client_cpu_ms;
    for (std::string& v : p.violations) out.violation(std::move(v));
    for (const auto& [k, v] : p.views) views[k].push_back(v);
    for (LatencyHist& h : p.slice_hists) slices.push_back(std::move(h));
  }
  fold_slices(std::move(slices), window_s, out, parts.back().work_per_sample);
  out.ops = ops;  // a workload may count operations other than its timed calls
  for (auto& [k, v] : views) out.views[k] = median(v);
  out.edge_cost_mean = parts.back().edge_cost_mean;
  out.layout = parts.back().layout;
  return out;
}

}  // namespace xtb
