// The three serving workloads: serve-hot (cache hits on the epoll
// edge), serve-routed (the same traffic plus 10% fresh shapes through
// an in-process Router in front of two shard servers) and serve-cold
// (every shape new, large exact-form guests, full embeddings back).
#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <tuple>

#include "btree/canonical.hpp"
#include "btree/generators.hpp"
#include "gate.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "net/router.hpp"
#include "replay.hpp"
#include "util/parallel.hpp"

namespace xtb {
namespace {

using xt::NodeId;
using xt::Theorem;

// Theorem mix of every serving workload: T1 60%, T2 20%, T3 20%.
// Fixed compositions (the hot set, the verified calibration set) cycle
// through the same mix so that every seed carries the same work and
// only the random shapes differ.
const std::vector<double> kTheoremMix{0.6, 0.2, 0.2};
const Theorem kTheoremCycle[5] = {Theorem::kT1, Theorem::kT2, Theorem::kT1, Theorem::kT3,
                                  Theorem::kT1};

std::string status_violation(int code, const std::string& body) {
  return "status " + std::to_string(code) + ": " + body.substr(0, 160);
}

std::vector<double> to_us(std::vector<double> ns) {
  for (double& v : ns) v /= 1e3;
  return ns;
}

// ---- serve-hot / serve-routed ----------------------------------------------

constexpr std::size_t kHotKeys = 64;
constexpr std::size_t kVariants = 32;  // pre-encoded isomorphs per hot shape
constexpr std::uint64_t kFreshTag = 1ull << 63;
constexpr std::uint64_t kWarmRequests = 2500;  // per connection

struct HotKey {
  xt::BinaryTree tree;
  Theorem theorem = Theorem::kT1;
  std::string hit_prefix;          // bytes every hit must start with
  std::vector<std::string> frames; // xtn1, forms paren / Newick / xtb1
  std::vector<std::string> https;  // HTTP, forms paren / Newick
};

/// 64 hot (shape, theorem) keys in 32 pairs: key 2p has n=240 and key
/// 2p+1 n=496, pair p takes family p mod 9 and theorem p mod 5 of the
/// cycles (distinct for all 32 pairs), so the hot set covers every
/// generator family and every seed's set carries the same mix.  Each
/// key has kVariants random isomorphs pre-encoded.
std::vector<HotKey> build_hot_keys(std::uint64_t seed) {
  xt::Rng rng(stream_seed(seed, 1));
  const auto& families = xt::tree_family_names();
  // (family, size, theorem) keys of the deterministic families already
  // taken: a repeat would be the same cache key, so that pair falls back
  // to the random family (the same pairs for every seed).
  std::set<std::tuple<std::size_t, NodeId, Theorem>> taken;
  std::vector<HotKey> keys;
  for (std::size_t i = 0; i < kHotKeys; ++i) {
    const NodeId n = i % 2 == 0 ? exact_size(3) : exact_size(4);
    const Theorem t = kTheoremCycle[(i / 2) % 5];
    std::size_t fam = (i / 2) % families.size();
    if (std::find(random_family_names().begin(), random_family_names().end(), families[fam]) ==
            random_family_names().end() &&
        !taken.insert({fam, n, t}).second)
      fam = static_cast<std::size_t>(
          std::find(families.begin(), families.end(), "random") - families.begin());
    xt::BinaryTree tree = xt::make_family_tree(families[fam], n, rng);
    HotKey k;
    k.theorem = t;
    for (std::size_t v = 0; v < kVariants; ++v) {
      const xt::BinaryTree iso = random_isomorph(tree, rng);
      const auto form = static_cast<PayloadForm>(v % 3);
      k.frames.push_back(embed_frame(encode_payload(iso, form),
                                     static_cast<std::uint8_t>(form), t, false));
      k.https.push_back(embed_http(
          encode_payload(iso, v % 2 == 0 ? PayloadForm::kParen : PayloadForm::kNewick), t,
          false));
    }
    k.tree = std::move(tree);
    keys.push_back(std::move(k));
  }
  return keys;
}

class ServeHot final : public Workload {
 public:
  ServeHot(const Options& opt, bool routed) : opt_(opt), routed_(routed) {}

  ~ServeHot() override {
    // Front to back: the router's edge, the router, then the shards.
    if (front_) front_->stop();
    if (router_) router_->stop();
  }

  void setup() override {
    keys_ = build_hot_keys(opt_.seed);

    xt::ServiceConfig svc;
    svc.queue_capacity = 256;
    svc.cache_capacity = 4096;
    xt::NetServerConfig net;
    xt::RouterConfig rc;  // the shipped defaults: 4 link workers per shard
    if (!routed_) {
      svc.num_shards = 2;
      net.num_loops = 2;
      servers_.push_back(host_server(svc, net, rec_));
      port_ = servers_[0]->port();
    } else {
      svc.num_shards = 1;
      net.num_loops = 1;
      for (int s = 0; s < 2; ++s) {
        servers_.push_back(host_server(svc, net, rec_));
        rc.shards.push_back({"127.0.0.1", servers_.back()->port()});
      }
      router_ = std::make_unique<xt::Router>(rc);
      router_->start();
      xt::EmbedBackend* backend = router_.get();
      if (rec_ != nullptr) {
        router_timed_ = std::make_unique<TimedBackend>(*router_, *rec_, "router.backend");
        backend = router_timed_.get();
      }
      front_ = std::make_unique<xt::NetServer>(*backend, net);
      front_->start();
      port_ = front_->port();
    }
    layout_["loops"] = static_cast<long long>(net.num_loops * (routed_ ? 3 : 1));
    layout_["service_shards"] = static_cast<long long>(svc.num_shards * servers_.size());
    layout_["router_link_workers"] =
        static_cast<long long>(rc.connections_per_shard) * static_cast<long long>(rc.shards.size());

    warm_reference();
    // Untimed warm-up traffic: memoized hit bodies, loop buffers, TCP.
    // A fixed count of requests, so set-up is the same work however
    // fast the host runs it.
    Pass scratch;
    run_window(0, opt_.smoke ? kWarmRequests / 10 : kWarmRequests, scratch, false);
    client_ok_ += scratch.ok;
    for (auto& v : scratch.violations) warm_violations_.push_back(std::move(v));
  }

  void measure(double seconds, Pass& out) override {
    for (auto& v : warm_violations_) out.violation("warm-up: " + v);
    std::vector<JsonValue> before;
    if (rec_ != nullptr) before = shard_stats(out);
    const std::vector<std::uint64_t> fwd_before = forwarded();
    const ProcUsage u0 = ProcUsage::now();
    run_window(seconds, UINT64_MAX, out, true);
    const ProcUsage u1 = ProcUsage::now();
    out.cpu_ms = u1.cpu_ms - u0.cpu_ms;
    client_ok_ += out.ok;
    out.edge_cost_mean = edges_ > 0 ? edge_cost_ / static_cast<double>(edges_) : 0.0;
    out.layout = layout_;
    out.layout["client_threads"] = 1;
    out.layout["connections"] = 4;
    out.layout["pool_workers"] = xt::ThreadPool::shared().num_threads();
    out.layout["process_threads"] = process_threads();
    check_identities(out);
    if (rec_ == nullptr) return;
    layer_from_stats(before, shard_stats(out), out);
    layer_proc(u0, u1, out.rps * out.window_s, out);
    out.layer["net.hit_rtt_us.p50"] = median(hit_rtt_us_);
    const char* span = routed_ ? "router.backend" : "service.backend";
    const std::vector<double> backend_us = to_us(rec_->durations_ns(span, win_start_, win_end_));
    const Summary svc =
        summarize(to_us(rec_->durations_ns("service.backend", win_start_, win_end_)));
    out.layer["service.backend_us.p50"] = svc.p50;
    out.layer["service.backend_us.p99"] = svc.tail;
    if (!queued_rtt_us_.empty() && !backend_us.empty())
      out.layer["net.edge_self_us.p50"] = median(queued_rtt_us_) - median(backend_us);
    if (routed_) {
      out.layer["router.backend_us.p50"] = median(backend_us);
      out.layer["router.queue_depth.max"] = static_cast<double>(router_depth_max_);
      const std::vector<std::uint64_t> fwd_after = forwarded();
      double max_fwd = 0, sum_fwd = 0;
      for (std::size_t i = 0; i < fwd_after.size(); ++i) {
        const auto d = static_cast<double>(fwd_after[i] - fwd_before[i]);
        max_fwd = std::max(max_fwd, d);
        sum_fwd += d;
      }
      if (sum_fwd > 0)
        out.layer["router.shard_imbalance"] = max_fwd / (sum_fwd / static_cast<double>(fwd_after.size()));
    }
  }

  void replay(Pass& out) override {
    xt::Rng rng(stream_seed(opt_.seed, 90));
    std::vector<SentRequest> sample;
    for (int i = 0; i < 256; ++i) {
      const HotKey& k = keys_[draw_key(rng)];
      const bool http = i % 4 == 3;
      const std::size_t v = rng.below(kVariants);
      sample.push_back({http ? k.https[v] : k.frames[v], http, k.theorem, false});
    }
    replay_edge(sample, [this](std::uint64_t h) { return cache_for(h); }, 16, *rec_, out);
    if (!routed_) return;
    // Router hop: the router's span minus a direct call to the owning
    // shard with the same bytes.
    std::vector<double> direct_us;
    std::vector<xt::NetClient> direct(servers_.size());
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      std::string err;
      if (!direct[i].connect("127.0.0.1", servers_[i]->port(), &err, 5000))
        out.violation("replay connect: " + err);
      direct[i].set_recv_timeout_ms(60000);
    }
    xt::CanonicalScratch scratch;
    for (const SentRequest& req : sample) {
      if (req.http) continue;
      xt::BinaryTree tree;
      std::string payload;
      if (!decode_request(req, &tree, &payload)) continue;
      const std::size_t owner = router_->ring().lookup(
          xt::canonical_hash(tree.num_nodes(), tree.left_data(), tree.right_data(), scratch));
      std::string err;
      xt::WireFrame r;
      const std::int64_t t0 = now_ns();
      if (!direct[owner].send_all(req.wire, &err) || !direct[owner].recv_frame(&r, &err)) {
        out.violation("replay: direct shard call failed: " + err);
        break;
      }
      direct_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    out.layer["router.hop_us.p50"] = out.layer["router.backend_us.p50"] - median(direct_us);
  }

 private:
  xt::CanonicalCache* cache_for(std::uint64_t digest) const {
    const std::size_t i = routed_ ? router_->ring().lookup(digest) : 0;
    return servers_[i]->service->canonical_cache();
  }

  /// Fresh-embed reference for every hot key: the shape's first
  /// request is a miss; its bytes define what every later hit must
  /// carry.  A second request, a random isomorph asking for the full
  /// embedding, is a hit whose remapped embedding goes through the
  /// certificate chain.  Its cost feeds edge_cost_mean.
  void warm_reference() {
    xt::NetClient client;
    std::string err;
    if (!client.connect("127.0.0.1", port_, &err, 5000)) {
      warm_violations_.push_back("connect: " + err);
      return;
    }
    client.set_recv_timeout_ms(60000);
    xt::Rng rng(stream_seed(opt_.seed, 3));
    const auto call = [&](const xt::BinaryTree& tree, Theorem t, bool want, xt::WireFrame* r) {
      xt::WireFrame req;
      req.format = static_cast<std::uint8_t>(PayloadForm::kXtb1);
      req.code = static_cast<std::uint8_t>(t);
      req.flags = want ? xt::kWireFlagWantEmbedding : 0;
      req.payload = encode_payload(tree, PayloadForm::kXtb1);
      if (!client.call(req, r, &err)) {
        warm_violations_.push_back("transport: " + err);
        return false;
      }
      if (r->code != 0) {
        warm_violations_.push_back(status_violation(r->code, r->payload));
        return false;
      }
      ++client_ok_;
      return true;
    };
    for (HotKey& k : keys_) {
      const NodeId n = k.tree.num_nodes();
      xt::WireFrame miss;
      if (!call(k.tree, k.theorem, false, &miss)) return;
      if (std::string bad = check_claims(k.theorem, n, miss.payload, 0); !bad.empty())
        warm_violations_.push_back("fresh embed: " + bad);
      k.hit_prefix = hit_prefix_from_miss(response_prefix(miss.payload));
      const xt::BinaryTree iso = random_isomorph(k.tree, rng);
      xt::WireFrame hit;
      if (!call(iso, k.theorem, true, &hit)) return;
      const FullCheck fc = verify_full(k.theorem, iso, hit.payload);
      const std::string_view head = std::string_view(hit.payload).substr(0, k.hit_prefix.size());
      if (!fc.error.empty())
        warm_violations_.push_back("certificate chain: " + fc.error);
      else if (head != k.hit_prefix)
        warm_violations_.push_back("hit claims differ from the fresh embed's");
      edge_cost_ += fc.edge_cost_sum;
      edges_ += fc.edges;
    }
  }

  /// One closed-loop window on 4 connections: 3 xtn1, 1 HTTP.  Runs
  /// for `seconds`, or for `max_requests` per connection if given.
  void run_window(double seconds, std::uint64_t max_requests, Pass& out, bool timed) {
    constexpr int kConns = 4;
    if (channels_.empty()) {
      for (int c = 0; c < kConns; ++c) {
        channels_.push_back(std::make_unique<Channel>(c == kConns - 1));
        std::string err;
        if (!channels_.back()->connect(port_, &err)) out.violation("connect: " + err);
      }
    }
    std::vector<std::vector<double>> hit_rtt(kConns), queued_rtt(kConns);
    std::atomic<bool> done{false};
    std::thread sampler;
    if (timed && routed_ && rec_ != nullptr) {
      sampler = std::thread([&] {
        while (!done.load()) {
          for (const auto& s : router_->stats().shards)
            router_depth_max_ = std::max(router_depth_max_, s.queue_depth);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    const std::int64_t start = now_ns();
    const std::int64_t end =
        max_requests == UINT64_MAX ? start + static_cast<std::int64_t>(seconds * 1e9) : INT64_MAX;
    if (timed) {
      win_start_ = start;
      win_end_ = end;
    }
    std::vector<xt::Rng> rngs;
    for (int c = 0; c < kConns; ++c)
      rngs.emplace_back(stream_seed(opt_.seed, (timed ? 100 : 200) + static_cast<std::uint64_t>(c)));
    std::vector<std::string> scratches(kConns);
    std::vector<LoopConn> conns;
    for (int c = 0; c < kConns; ++c) {
      {
        Channel& ch = *channels_[static_cast<std::size_t>(c)];
        xt::Rng& rng = rngs[static_cast<std::size_t>(c)];
        std::string& scratch = scratches[static_cast<std::size_t>(c)];
        const auto next = [&, c](std::uint64_t i) -> Outgoing {
          if (routed_ && rng.chance(0.1)) {
            // A fresh n=240 shape: a miss that the owning shard embeds.
            const auto t = static_cast<Theorem>(pick_weighted(kTheoremMix, rng));
            const auto& fams = random_family_names();
            const xt::BinaryTree tree =
                xt::make_family_tree(fams[rng.below(fams.size())], exact_size(3), rng);
            if (ch.http()) {
              scratch = embed_http(encode_payload(tree, PayloadForm::kNewick), t, false);
            } else {
              const auto form = static_cast<PayloadForm>(rng.below(3));
              scratch = embed_frame(encode_payload(tree, form), static_cast<std::uint8_t>(form), t, false);
              patch_request_id(scratch, static_cast<std::uint32_t>(i));
            }
            return {scratch, kFreshTag | static_cast<std::uint64_t>(t)};
          }
          const std::size_t key = draw_key(rng);
          const std::size_t v = rng.below(kVariants);
          if (ch.http()) return {keys_[key].https[v], key};
          scratch = keys_[key].frames[v];
          patch_request_id(scratch, static_cast<std::uint32_t>(i));
          return {scratch, key};
        };
        const auto check = [&, c](std::uint64_t tag, const Reply& r, std::int64_t rtt) -> std::string {
          if (r.code != 0) return status_violation(r.code, r.body);
          if ((tag & kFreshTag) != 0) {
            if (rec_ != nullptr) queued_rtt[static_cast<std::size_t>(c)].push_back(static_cast<double>(rtt) / 1e3);
            return check_claims(static_cast<Theorem>(tag & 3u), exact_size(3), r.body);
          }
          if (rec_ != nullptr) {
            const bool inline_hit = r.body.find("\"served_seq\": 0,") != std::string::npos;
            (inline_hit ? hit_rtt : queued_rtt)[static_cast<std::size_t>(c)].push_back(
                static_cast<double>(rtt) / 1e3);
          }
          return check_hit_bytes(r.body, keys_[tag].hit_prefix);
        };
        conns.push_back({&ch, next, check});
      }
    }
    // This thread drives all four connections (poll): with the server's
    // loops it keeps the busy threads below the core count, so a
    // preempted core costs the loop a migration, not a stall.
    const std::vector<LoopStats> loops = run_closed_loops(conns, window(), start, end, max_requests);
    done = true;
    if (sampler.joinable()) sampler.join();
    out.tail_estimate = TailEstimate::kSliceMedian;
    const std::int64_t stop = max_requests == UINT64_MAX ? end : now_ns();
    fold_loops(loops, static_cast<double>(stop - start) / 1e9, out);
    if (timed) {
      for (auto& v : hit_rtt) hit_rtt_us_.insert(hit_rtt_us_.end(), v.begin(), v.end());
      for (auto& v : queued_rtt) queued_rtt_us_.insert(queued_rtt_us_.end(), v.begin(), v.end());
    }
  }

  std::vector<JsonValue> shard_stats(Pass& out) {
    std::vector<JsonValue> all;
    for (const auto& s : servers_) {
      std::string err;
      auto st = fetch_stats(s->port(), &err);
      if (!st) {
        out.violation("/stats: " + err);
        all.emplace_back();
      } else {
        all.push_back(std::move(*st));
      }
    }
    return all;
  }

  /// Calls the router forwarded to each shard so far.
  std::vector<std::uint64_t> forwarded() const {
    std::vector<std::uint64_t> out;
    if (router_)
      for (const auto& s : router_->stats().shards) out.push_back(s.forwarded);
    return out;
  }

  /// ok == service.completed + net.inline_hits, summed over the servers
  /// that answer embeds; behind the router also the router identity.
  void check_identities(Pass& out) {
    const std::vector<JsonValue> stats = shard_stats(out);
    double completed = 0, inline_hits = 0;
    for (const JsonValue& s : stats) {
      completed += s.num("service.completed").value_or(-1e18);
      inline_hits += s.num("net.inline_hits").value_or(-1e18);
    }
    if (!routed_) {
      if (std::string bad = check_serve_identity(stats[0], client_ok_); !bad.empty())
        out.violation(bad);
    } else if (static_cast<std::uint64_t>(completed + inline_hits) != client_ok_) {
      out.violation("identity ok == sum over shards of service.completed + net.inline_hits broken: ok=" +
                    std::to_string(client_ok_) + " completed=" + std::to_string(completed) +
                    " inline_hits=" + std::to_string(inline_hits));
    }
    if (routed_) {
      std::string err;
      const auto rs = fetch_stats(port_, &err);
      if (!rs) out.violation("/stats: " + err);
      else if (std::string bad = check_router_identity(*rs); !bad.empty()) out.violation(bad);
    }
  }

  Options opt_;
  bool routed_;
  std::vector<HotKey> keys_;

  /// Requests in flight per connection.  serve-hot sends one at a time:
  /// with replies pipelined, a reply also waits for the client to get
  /// through the rest of the batch, and a busy core on the host raised
  /// p99 by 10-25% at window 2 but by 3-4% at window 1.  Behind the
  /// router the tail is the 10% misses queueing at the shards; four per
  /// connection fill the 8 link workers and two shard edges, and there
  /// a busy core moved p99 least at window 4 (9%, against 29% at 2).
  std::size_t window() const { return routed_ ? 4 : 1; }
  /// Zipf(1) popularity over the 32 pairs (pair p has rank p), then
  /// either size with equal odds: every seed sends the same family,
  /// size and theorem mix; only the random families' shapes differ.
  std::size_t draw_key(xt::Rng& rng) const { return 2 * zipf_.draw(rng) + (rng() & 1u); }

  Zipf zipf_{kHotKeys / 2, 1.0};
  std::vector<std::unique_ptr<Hosted>> servers_;  // the server, or the shards
  std::unique_ptr<xt::Router> router_;
  std::unique_ptr<TimedBackend> router_timed_;
  std::unique_ptr<xt::NetServer> front_;  // the router's edge
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::map<std::string, long long> layout_;
  std::vector<std::string> warm_violations_;
  std::uint64_t client_ok_ = 0;
  double edge_cost_ = 0.0;
  std::int64_t edges_ = 0;
  std::vector<double> hit_rtt_us_, queued_rtt_us_;
  std::size_t router_depth_max_ = 0;
  std::int64_t win_start_ = 0, win_end_ = 0;  // the timed window
};

// ---- serve-cold ------------------------------------------------------------

constexpr int kColdConns = 2;
// Calibration requests per connection: one full period of the size (2),
// family (3) and theorem (5) cycles.
constexpr std::uint64_t kColdVerified = 30;
const std::vector<NodeId> kColdSizes{exact_size(6), exact_size(8), exact_size(10)};
// The window's mix comes in blocks of 20 requests, shuffled per block:
// sizes 14 / 5 / 1 (70 / 25 / 5 %), theorems 12 / 4 / 4 (60 / 20 / 20 %),
// so every run carries the mix exactly rather than in expectation.
constexpr int kColdBlock = 20;
const int kColdSizeCounts[3] = {14, 5, 1};
const int kColdTheoremCounts[3] = {12, 4, 4};

class ServeCold final : public Workload {
 public:
  explicit ServeCold(const Options& opt) : opt_(opt) {}

  void setup() override {
    cfg_.num_shards = 2;
    cfg_.cache_capacity = 16;  // far fewer than the run sends: every insert evicts
    cfg_.queue_capacity = 64;
    xt::NetServerConfig net;
    net.num_loops = 1;
    server_ = host_server(cfg_, net, rec_);
    for (int c = 0; c < kColdConns; ++c) {
      conns_[c].rng = xt::Rng(stream_seed(opt_.seed, 300 + static_cast<std::uint64_t>(c)));
      conns_[c].sample_rng = xt::Rng(stream_seed(opt_.seed, 400 + static_cast<std::uint64_t>(c)));
      std::string err;
      if (!conns_[c].ch.connect(server_->port(), &err)) warm_violations_.push_back("connect: " + err);
    }
    // The first kColdVerified requests of each connection are the
    // verified sample: certificate chain plus edge cost.  They also
    // fill the cache, so every insert in the window evicts.
    Pass warm;
    run(0, kColdVerified, warm, true);
    for (auto& v : warm.violations) warm_violations_.push_back(v);
  }

  void measure(double seconds, Pass& out) override {
    for (auto& v : warm_violations_) out.violation("warm-up: " + v);
    std::vector<JsonValue> before;
    std::string err;
    if (rec_ != nullptr) before.push_back(fetch_stats(server_->port(), &err).value_or(JsonValue{}));
    const ProcUsage u0 = ProcUsage::now();
    run(seconds, UINT64_MAX, out, false);
    const ProcUsage u1 = ProcUsage::now();
    out.cpu_ms = u1.cpu_ms - u0.cpu_ms;
    double cost = 0;
    std::int64_t edges = 0;
    std::uint64_t ok = 0;
    for (auto& c : conns_) {
      cost += c.cost;
      edges += c.edges;
      ok += c.server_ok;
      // The seeded 2% sample of the window, through the certificate chain.
      for (const auto& [tree, t, body] : c.kept)
        if (FullCheck fc = verify_full(t, tree, body); !fc.error.empty())
          out.violation("sampled embedding: " + fc.error);
      c.kept.clear();
    }
    out.edge_cost_mean = edges > 0 ? cost / static_cast<double>(edges) : 0.0;
    const auto stats = fetch_stats(server_->port(), &err);
    if (!stats) out.violation("/stats: " + err);
    else if (std::string bad = check_serve_identity(*stats, ok); !bad.empty()) out.violation(bad);
    out.layout["loops"] = 1;
    out.layout["service_shards"] = cfg_.num_shards;
    out.layout["router_link_workers"] = 0;
    out.layout["client_threads"] = kColdConns;
    out.layout["connections"] = kColdConns;
    out.layout["pool_workers"] = xt::ThreadPool::shared().num_threads();
    out.layout["process_threads"] = process_threads();
    if (rec_ == nullptr) return;
    layer_from_stats(before, {stats.value_or(JsonValue{})}, out);
    layer_proc(u0, u1, out.rps * out.window_s, out);
    const Summary svc =
        summarize(to_us(rec_->durations_ns("service.backend", win_start_, win_end_)));
    out.layer["service.backend_us.p50"] = svc.p50;
    out.layer["service.backend_us.p99"] = svc.tail;
    std::vector<double> rtt;
    for (auto& c : conns_) rtt.insert(rtt.end(), c.rtt_us.begin(), c.rtt_us.end());
    out.layer["net.edge_self_us.p50"] = median(rtt) - svc.p50;
  }

  void replay(Pass& out) override {
    std::vector<SentRequest> sample;
    for (auto& c : conns_) sample.insert(sample.end(), c.sent.begin(), c.sent.end());
    replay_edge(sample, [this](std::uint64_t) { return server_->service->canonical_cache(); },
                cfg_.load, *rec_, out);
    replay_miss_path(sample, cfg_, *rec_, rec_->named("service.backend", win_start_, win_end_), out);
  }

 private:
  struct Conn {
    Channel ch{false};
    xt::Rng rng;
    xt::Rng sample_rng;
    std::string frame;
    xt::BinaryTree cur;  // the tree of the one request in flight
    Theorem theorem = Theorem::kT1;
    std::uint64_t server_ok = 0;
    double cost = 0.0;
    std::int64_t edges = 0;
    std::vector<std::tuple<xt::BinaryTree, Theorem, std::string>> kept;
    std::vector<SentRequest> sent;  // traced: requests to replay
    std::vector<double> rtt_us;
    std::map<NodeId, std::size_t> seen_of_size;
    std::vector<std::pair<NodeId, Theorem>> block;  // rest of the current block
  };

  static std::pair<NodeId, Theorem> draw(Conn& k) {
    if (k.block.empty()) {
      std::vector<NodeId> sizes;
      std::vector<Theorem> theorems;
      for (int s = 0; s < 3; ++s) sizes.insert(sizes.end(), kColdSizeCounts[s], kColdSizes[s]);
      for (int t = 0; t < 3; ++t)
        theorems.insert(theorems.end(), kColdTheoremCounts[t], static_cast<Theorem>(t));
      for (std::size_t i = kColdBlock; i > 1; --i) {
        std::swap(sizes[i - 1], sizes[k.rng.below(i)]);
        std::swap(theorems[i - 1], theorems[k.rng.below(i)]);
      }
      for (int i = 0; i < kColdBlock; ++i) k.block.emplace_back(sizes[i], theorems[i]);
    }
    const auto d = k.block.back();
    k.block.pop_back();
    return d;
  }

  /// Writes the guest of a rejected response to the work directory (paren
  /// form, replayable with xt_fuzz / the embed API) and returns its path.
  std::string save_reproducer(const xt::BinaryTree& tree, Theorem t) {
    const std::string path = opt_.workdir + "/violation-serve-cold-seed" +
                             std::to_string(opt_.seed) + "-" + xt::theorem_name(t) + "-n" +
                             std::to_string(tree.num_nodes()) + "-" +
                             std::to_string(reproducers_++) + ".paren";
    std::ofstream os(path);
    os << tree.to_paren() << "\n";
    return os ? path : "(could not write " + path + ")";
  }

  /// Window 1 per connection: fewer requests in flight than cores.
  void run(double seconds, std::uint64_t max_requests, Pass& out, bool verify_all) {
    std::vector<LoopStats> loops(kColdConns);
    const std::int64_t start = now_ns();
    const std::int64_t end =
        max_requests == UINT64_MAX ? start + static_cast<std::int64_t>(seconds * 1e9) : INT64_MAX;
    if (!verify_all) {
      win_start_ = start;
      win_end_ = end;
    }
    std::vector<std::thread> threads;
    for (int c = 0; c < kColdConns; ++c) {
      threads.emplace_back([&, c] {
        Conn& k = conns_[c];
        const auto next = [&](std::uint64_t i) -> Outgoing {
          // The verified calibration set alternates 2032 and 8176 and
          // cycles the theorem mix; the window draws shuffled blocks.
          NodeId n = kColdSizes[i % 2];
          k.theorem = kTheoremCycle[i % 5];
          if (!verify_all) std::tie(n, k.theorem) = draw(k);
          const auto& fams = random_family_names();
          const std::string& fam = verify_all ? fams[i % fams.size()] : fams[k.rng.below(fams.size())];
          const xt::BinaryTree base = xt::make_family_tree(fam, n, k.rng);
          k.cur = random_isomorph(base, k.rng);
          const auto form = static_cast<PayloadForm>(k.rng.below(3));
          k.frame = embed_frame(encode_payload(k.cur, form), static_cast<std::uint8_t>(form),
                                k.theorem, true);
          patch_request_id(k.frame, static_cast<std::uint32_t>(i));
          return {k.frame, 0};
        };
        const auto check = [&](std::uint64_t, const Reply& r, std::int64_t rtt) -> std::string {
          if (r.code != 0) return status_violation(r.code, r.body);
          ++k.server_ok;
          if (std::string bad = check_claims(k.theorem, k.cur.num_nodes(), r.body, 0); !bad.empty())
            return bad + "; reproducer " + save_reproducer(k.cur, k.theorem);
          if (verify_all) {
            const FullCheck fc = verify_full(k.theorem, k.cur, r.body);
            k.cost += fc.edge_cost_sum;
            k.edges += fc.edges;
            return fc.error;
          }
          if (rec_ != nullptr) k.rtt_us.push_back(static_cast<double>(rtt) / 1e3);
          // The seeded 2% sample, plus the first few requests of each
          // size so every size class is replayed.
          std::size_t& seen = k.seen_of_size[k.cur.num_nodes()];
          if (k.sample_rng.chance(0.02) || seen < 3) {
            k.kept.emplace_back(k.cur, k.theorem, r.body);
            if (rec_ != nullptr) k.sent.push_back({k.frame, false, k.theorem, true});
          }
          ++seen;
          return "";
        };
        loops[static_cast<std::size_t>(c)] =
            run_closed_loop(k.ch, 1, start, end, max_requests, next, check);
      });
    }
    for (auto& t : threads) t.join();
    const std::int64_t stop = max_requests == UINT64_MAX ? end : now_ns();
    fold_loops(loops, static_cast<double>(stop - start) / 1e9, out);
  }

  Options opt_;
  xt::ServiceConfig cfg_;
  std::unique_ptr<Hosted> server_;
  Conn conns_[kColdConns];
  std::atomic<int> reproducers_{0};
  std::vector<std::string> warm_violations_;
  std::int64_t win_start_ = 0, win_end_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_hot(const Options& opt) {
  return std::make_unique<ServeHot>(opt, false);
}
std::unique_ptr<Workload> make_serve_routed(const Options& opt) {
  return std::make_unique<ServeHot>(opt, true);
}
std::unique_ptr<Workload> make_serve_cold(const Options& opt) {
  return std::make_unique<ServeCold>(opt);
}

}  // namespace xtb
