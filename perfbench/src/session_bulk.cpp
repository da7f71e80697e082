// session-churn (one writer streaming mutation batches beside two
// snapshot readers) and bulk-ingest (an xtb1 corpus drained by
// bulk_embed on the shared pool, no network).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>

#include "btree/canonical.hpp"
#include "btree/generators.hpp"
#include "bulk/corpus.hpp"
#include "bulk/pipeline.hpp"
#include "core/dynamic_embedder.hpp"
#include "embedding/metrics.hpp"
#include "gate.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "io/mutation_script.hpp"
#include "replay.hpp"
#include "topology/xtree.hpp"
#include "util/parallel.hpp"

namespace xtb {
namespace {

using xt::NodeId;

// ---- session-churn ------------------------------------------------------------

constexpr int kSessions = 16;
constexpr std::int32_t kSessionHeight = 8;  // X(8): 16 * 511 = 8176 slots
constexpr NodeId kSessionLoad = 16;
constexpr NodeId kSessionCapacity = 16 * ((1 << (kSessionHeight + 1)) - 1);
constexpr NodeId kGrowTarget = kSessionCapacity / 2;
constexpr int kBatchOps = 8;
constexpr int kWarmBatches = 64;  // churn before the edge-cost checkpoint
const xt::MutationPolicy kPolicy{64, 8};

/// The writer's model of one session's tree, by stable id, kept in step
/// with the server from the per-op records it returns.  Ops are drawn
/// from it so that every op is valid: no op should be rejected.
struct Shadow {
  std::vector<NodeId> parent{xt::kInvalidNode};
  std::vector<std::uint8_t> kids{0};
  std::vector<NodeId> live{0};
  std::vector<NodeId> pos{0};  // stable id -> index in live, or -1

  void ensure(NodeId v) {
    const auto need = static_cast<std::size_t>(v) + 1;
    if (parent.size() < need) {
      parent.resize(need, xt::kInvalidNode);
      kids.resize(need, 0);
      pos.resize(need, -1);
    }
  }
  void attach(NodeId leaf, NodeId p) {  // kids[p] was counted when drawn
    ensure(leaf);
    parent[static_cast<std::size_t>(leaf)] = p;
    kids[static_cast<std::size_t>(leaf)] = 0;
    pos[static_cast<std::size_t>(leaf)] = static_cast<NodeId>(live.size());
    live.push_back(leaf);
  }
  void remove_leaf(NodeId v) {
    --kids[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
    const NodeId i = pos[static_cast<std::size_t>(v)];
    const NodeId last = live.back();
    live[static_cast<std::size_t>(i)] = last;
    pos[static_cast<std::size_t>(last)] = i;
    live.pop_back();
    pos[static_cast<std::size_t>(v)] = -1;
    parent[static_cast<std::size_t>(v)] = xt::kInvalidNode;
  }
  bool in_subtree(NodeId x, NodeId v) const {  // x inside subtree(v)?
    for (; x != xt::kInvalidNode; x = parent[static_cast<std::size_t>(x)])
      if (x == v) return true;
    return false;
  }
  NodeId any(xt::Rng& rng) const { return live[rng.below(live.size())]; }
  NodeId open_slot(xt::Rng& rng) const {  // a live node with a free child slot
    for (;;) {
      const NodeId v = any(rng);
      if (kids[static_cast<std::size_t>(v)] < 2) return v;
    }
  }
};

class SessionChurn final : public Workload {
 public:
  explicit SessionChurn(const Options& opt) : opt_(opt) {}

  void setup() override {
    xt::ServiceConfig svc;
    svc.num_shards = 1;
    svc.cache_capacity = 16;
    xt::NetServerConfig net;
    net.num_loops = 2;
    scfg_.default_height = kSessionHeight;
    scfg_.default_load = kSessionLoad;
    scfg_.policy = kPolicy;
    server_ = host_server(svc, net, nullptr, &scfg_);
    std::string err;
    if (!setup_.connect("127.0.0.1", server_->port(), &err, 5000))
      warm_violations_.push_back("connect: " + err);
    setup_.set_recv_timeout_ms(60000);
    for (auto* ch : {&writer_, &readers_[0], &readers_[1]})
      if (!ch->connect(server_->port(), &err)) warm_violations_.push_back("connect: " + err);
    for (int s = 0; s < kSessions; ++s) {
      Reply r;
      err = call(xt::WireFormat::kSessionCreate,
                 name(s) + " " + std::to_string(kSessionHeight) + " " + std::to_string(kSessionLoad), &r);
      if (!err.empty() || r.code != 0) warm_violations_.push_back("create: " + err + r.body);
    }
    // Grow every session to about half its machine's capacity.
    for (int s = 0; s < kSessions; ++s) {
      while (static_cast<NodeId>(shadow_[s].live.size()) < kGrowTarget) {
        const NodeId live = static_cast<NodeId>(shadow_[s].live.size());
        const int k = std::min<NodeId>({512, kGrowTarget - live, std::max<NodeId>(1, live / 2)});
        mutate_once(s, k, /*grow_only=*/true);
      }
    }
    for (int b = 0; b < kWarmBatches; ++b)
      mutate_once(static_cast<int>(rng_.below(kSessions)), kBatchOps, false);
    // Edge cost of the snapshots at a fixed script position (the same
    // for every seed, see rng_).
    double cost = 0;
    std::int64_t edges = 0;
    for (int s = 0; s < kSessions; ++s) validate_snapshot(s, &cost, &edges, warm_violations_);
    edge_cost_mean_ = edges > 0 ? cost / static_cast<double>(edges) : 0.0;
  }

  void measure(double seconds, Pass& out) override {
    for (auto& v : warm_violations_) out.violation("set-up: " + v);
    rng_.reseed(stream_seed(opt_.seed, 500));
    const xt::SessionStats s0 = server_->sessions->stats();
    std::string err;
    std::vector<JsonValue> net_before;
    if (rec_ != nullptr) net_before.push_back(fetch_stats(server_->port(), &err).value_or(JsonValue{}));
    const ProcUsage u0 = ProcUsage::now();
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::atomic<bool> done{false};
    std::size_t depth_max = 0;
    std::thread sampler;
    if (rec_ != nullptr) {
      sampler = std::thread([&] {
        while (!done.load()) {
          depth_max = std::max(depth_max, server_->sessions->stats().mutation_queue_depth);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    std::uint64_t ops_in_window = 0;
    // One client thread drives the writer and both readers (poll), so
    // the busy threads (it, two loops, the session writer) match the
    // core count.
    std::string wframe;
    int session = 0;
    std::vector<LoopConn> conns;
    conns.push_back(
        {&writer_,
         [&](std::uint64_t i) -> Outgoing {
           session = static_cast<int>(rng_.below(kSessions));
           wframe = session_frame(xt::WireFormat::kSessionMutate, draw_batch(session, kBatchOps, false));
           patch_request_id(wframe, static_cast<std::uint32_t>(i));
           return {wframe, 0};
         },
         [&](std::uint64_t, const Reply& r, std::int64_t) {
           std::string bad = apply_reply(session, r);
           if (bad.empty() && now_ns() <= end) ops_in_window += kBatchOps;
           return bad;
         }});
    std::vector<xt::Rng> rngs{xt::Rng(stream_seed(opt_.seed, 600)), xt::Rng(stream_seed(opt_.seed, 601))};
    std::string rframes[2];
    for (int c = 0; c < 2; ++c) {
      conns.push_back(
          {&readers_[c],
           [&, c](std::uint64_t i) -> Outgoing {
             rframes[c] = session_frame(xt::WireFormat::kSessionQuery,
                                        name(static_cast<int>(rngs[static_cast<std::size_t>(c)].below(kSessions))));
             patch_request_id(rframes[c], static_cast<std::uint32_t>(i));
             return {rframes[c], 0};
           },
           [](std::uint64_t, const Reply& r, std::int64_t) -> std::string {
             if (r.code != 0) return "read status " + std::to_string(r.code) + ": " + r.body.substr(0, 120);
             const auto dil = json_int_field(r.body, "dilation");
             const auto load = json_int_field(r.body, "max_load");
             const auto height = json_int_field(r.body, "host_height");
             if (!dil || !load || !height || *dil > kPolicy.max_dilation || *load > kSessionLoad ||
                 *height != kSessionHeight)
               return "snapshot outside the session policy: " + r.body.substr(0, 160);
             return "";
           }});
    }
    const std::vector<LoopStats> loops = run_closed_loops(conns, 1, start, end, UINT64_MAX);
    done = true;
    if (sampler.joinable()) sampler.join();
    const ProcUsage u1 = ProcUsage::now();
    out.cpu_ms = u1.cpu_ms - u0.cpu_ms;
    const xt::SessionStats s1 = server_->sessions->stats();
    const double window = static_cast<double>(end - start) / 1e9;
    // Counts cover every request; the wall-clock figures are the writer's:
    // rps counts mutation ops, latencies are per mutate batch.  Reads are
    // the traffic the writes run beside, reported as read_p50/p99_ms.
    fold_loops(loops, window, out);
    // CPU is charged per request, read or mutate batch: the readers send
    // about 8 requests per batch, in a ratio that follows timing, so the
    // CPU per mutation op would move with that ratio.
    const double requests = out.ops;
    fold_slices(loops[0].slices, window, out, kBatchOps);
    out.ops = requests;
    LatencyHist reads;
    for (std::size_t k = 0; k < kSlices; ++k) {
      reads.merge(loops[1].slices[k]);
      reads.merge(loops[2].slices[k]);
    }
    out.views["mutate_ops_per_s"] = static_cast<double>(ops_in_window) / window;
    out.views["mutate_p50_ms"] = out.latency_ms.p50;
    out.views["mutate_p99_ms"] = out.latency_ms.tail;
    out.views["read_p50_ms"] = reads.percentile(50.0);
    out.views["read_p99_ms"] = reads.percentile(99.0);
    out.edge_cost_mean = edge_cost_mean_;

    // Final snapshots against the writer's model, then the identity.
    double cost = 0;
    std::int64_t edges = 0;
    std::vector<std::string> bad;
    for (int s = 0; s < kSessions; ++s) validate_snapshot(s, &cost, &edges, bad);
    for (auto& v : bad) out.violation("final snapshot: " + v);
    const auto stats = fetch_stats(server_->port(), &err);
    if (!stats) out.violation("/stats: " + err);
    else if (std::string b = check_session_identity(*stats); !b.empty()) out.violation(b);
    if (s1.ops_rejected != 0) out.violation("session rejected " + std::to_string(s1.ops_rejected) + " ops");
    out.layout["loops"] = 2;
    out.layout["service_shards"] = 1;
    out.layout["session_writer_threads"] = 1;
    out.layout["router_link_workers"] = 0;
    out.layout["client_threads"] = 1;
    out.layout["connections"] = 3;
    out.layout["pool_workers"] = xt::ThreadPool::shared().num_threads();
    out.layout["process_threads"] = process_threads();
    if (rec_ == nullptr) return;
    const double ops = static_cast<double>(s1.ops_applied - s0.ops_applied);
    out.layer["session.escalated_per_kop"] = ops > 0 ? static_cast<double>(s1.ops_escalated - s0.ops_escalated) / (ops / 1000.0) : 0.0;
    out.layer["session.repaired_ratio"] = ops > 0 ? static_cast<double>(s1.ops_repaired - s0.ops_repaired) / ops : 0.0;
    out.layer["session.nodes_touched_per_op"] = ops > 0 ? static_cast<double>(s1.nodes_touched - s0.nodes_touched) / ops : 0.0;
    out.layer["session.queue_depth.max"] = static_cast<double>(depth_max);
    out.layer["session.snapshots_per_s"] = static_cast<double>(s1.snapshots_published - s0.snapshots_published) / window;
    layer_from_stats(net_before, {stats.value_or(JsonValue{})}, out);
    layer_proc(u0, u1, out.rps * out.window_s, out);
  }

  void replay(Pass& out) override {
    // Reads: with_snapshot on the live manager, encoding the snapshot as
    // the server does inside the callback.
    std::vector<double> read_us;
    xt::Rng rng(stream_seed(opt_.seed, 700));
    for (int i = 0; i < 512; ++i) {
      NodeId n = 0;
      const std::string id = name(static_cast<int>(rng.below(kSessions)));
      std::string body;
      const std::int64_t t0 = now_ns();
      server_->sessions->with_snapshot(id, 0, [&](const xt::EmbeddingSnapshot& s) {
        body = xt::session_embedding_json(id, s);
        n = s.tree.num_nodes();
      });
      const std::int64_t t1 = now_ns();
      rec_->record("session.read", t0, t1);
      read_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (n == 0) out.violation("replay: empty snapshot");
    }
    out.layer["session.read_us.p50"] = median(read_us);
    // Session 0's script: batches through a fresh manager's
    // mutate_sync, ops through a bare DynamicEmbedder.
    xt::SessionManager fresh(scfg_);
    fresh.create(name(0), kSessionHeight, kSessionLoad);
    xt::DynamicEmbedder dyn(kSessionHeight, kSessionLoad, kPolicy);
    std::vector<double> batch_us, op_us;
    for (const auto& [grow, text] : script_[0]) {
      xt::MutationScript ms;
      std::string err;
      if (!xt::parse_mutation_script(text, &ms, &err)) {
        out.violation("replay: recorded script does not parse: " + err);
        return;
      }
      const std::int64_t t0 = now_ns();
      const xt::MutateOutcome o = fresh.mutate_sync(name(0), ms.ops);
      const std::int64_t t1 = now_ns();
      if (!grow) {
        rec_->record("session.mutate", t0, t1);
        batch_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      }
      for (const xt::MutationOp& op : ms.ops) {
        const std::int64_t a = now_ns();
        bool ok = true;
        switch (op.kind) {
          case xt::MutationOpKind::kAddLeaf: ok = dyn.try_add_leaf(op.a).ok(); break;
          case xt::MutationOpKind::kRemoveLeaf: ok = dyn.try_remove_leaf(op.a).ok(); break;
          case xt::MutationOpKind::kRemoveSubtree: ok = dyn.try_remove_subtree(op.a).ok(); break;
          case xt::MutationOpKind::kMoveSubtree: ok = dyn.try_move_subtree(op.a, op.b).ok(); break;
        }
        const std::int64_t b = now_ns();
        if (!grow) {
          rec_->record("core.dyn_op", a, b);
          op_us.push_back(static_cast<double>(b - a) / 1e3);
        }
        if (!ok) out.violation("replay: DynamicEmbedder rejected " + xt::format_mutation_op(op));
      }
      if (o.status != xt::SessionStatus::kOk) out.violation("replay: mutate_sync failed");
    }
    out.layer["session.mutate_us.p50"] = median(batch_us);
    out.layer["core.dyn_op_us"] = median(op_us);
  }

 private:
  static std::string name(int s) {
    char buf[8];
    std::snprintf(buf, sizeof buf, "s%02d", s);
    return buf;
  }

  /// One blocking exchange on the set-up connection; returns the
  /// transport error, or "".
  std::string call(xt::WireFormat f, const std::string& payload, Reply* r) {
    xt::WireFrame req, resp;
    req.format = static_cast<std::uint8_t>(f);
    req.payload = payload;
    std::string err;
    if (!setup_.call(req, &resp, &err)) return "transport: " + err;
    r->code = resp.code;
    r->body = std::move(resp.payload);
    return "";
  }

  /// Draws a batch of `k` valid ops for session `s` in the mutation
  /// script format (first line the session id).  Mix: add-leaf 40%,
  /// remove-leaf 30%, move 30%; adds turn into removes above 3/4 of
  /// capacity so the churn never fills the machine.
  std::string draw_batch(int s, int k, bool grow_only) {
    Shadow& sh = shadow_[s];
    pending_.clear();
    std::string text;
    for (int j = 0; j < k; ++j) {
      xt::MutationOp op;
      const double u = grow_only ? 0.0 : rng_.uniform01();
      const bool full = static_cast<NodeId>(sh.live.size()) >= kSessionCapacity * 3 / 4;
      bool drawn = false;
      if (u >= 0.4 || full) {
        if (u < 0.7 || full) {
          for (int tries = 0; tries < 64 && !drawn; ++tries) {
            const NodeId c = sh.any(rng_);
            if (c == 0 || sh.kids[static_cast<std::size_t>(c)] != 0) continue;
            op = {xt::MutationOpKind::kRemoveLeaf, c, xt::kInvalidNode};
            sh.remove_leaf(c);
            drawn = true;
          }
        } else {
          for (int tries = 0; tries < 64 && !drawn; ++tries) {
            const NodeId c = sh.any(rng_);
            const NodeId d = sh.open_slot(rng_);
            if (c == 0 || d == sh.parent[static_cast<std::size_t>(c)] || sh.in_subtree(d, c)) continue;
            op = {xt::MutationOpKind::kMoveSubtree, c, d};
            --sh.kids[static_cast<std::size_t>(sh.parent[static_cast<std::size_t>(c)])];
            ++sh.kids[static_cast<std::size_t>(d)];
            sh.parent[static_cast<std::size_t>(c)] = d;
            drawn = true;
          }
        }
      }
      if (!drawn) {  // an add (also the fallback: an add is always valid)
        op = {xt::MutationOpKind::kAddLeaf, sh.open_slot(rng_), xt::kInvalidNode};
        ++sh.kids[static_cast<std::size_t>(op.a)];
      }
      pending_.push_back(op);
      text += xt::format_mutation_op(op);
      text += '\n';
    }
    script_[s].emplace_back(grow_only, text);
    return name(s) + "\n" + text;
  }

  /// Checks a mutate reply and applies its new leaf ids to the model.
  std::string apply_reply(int s, const Reply& r) {
    if (r.code != 0) return "mutate status " + std::to_string(r.code) + ": " + r.body.substr(0, 160);
    std::string err;
    const auto doc = parse_json(r.body, &err);
    if (!doc) return "mutate reply: " + err;
    const JsonValue* ops = doc->get("ops");
    if (ops == nullptr || ops->array.size() != pending_.size()) return "mutate reply lacks per-op records";
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      const JsonValue& rec = ops->array[i];
      const JsonValue* st = rec.get("status");
      if (st == nullptr || st->string != "ok")
        return "op rejected: " + xt::format_mutation_op(pending_[i]) + " -> " + (st ? st->string : "?");
      if (pending_[i].kind == xt::MutationOpKind::kAddLeaf) {
        const auto leaf = rec.num("leaf");
        if (!leaf) return "add record without a leaf id";
        shadow_[s].attach(static_cast<NodeId>(*leaf), pending_[i].a);
      }
    }
    return "";
  }

  void mutate_once(int s, int k, bool grow_only) {
    Reply r;
    if (std::string err = call(xt::WireFormat::kSessionMutate, draw_batch(s, k, grow_only), &r);
        !err.empty()) {
      warm_violations_.push_back(err);
      return;
    }
    if (std::string bad = apply_reply(s, r); !bad.empty()) warm_violations_.push_back(bad);
  }

  /// Latest snapshot of session `s` against the writer's model: same
  /// live ids, claimed dilation equal to the recomputed one and within
  /// the policy.  Adds the snapshot's edge cost.
  void validate_snapshot(int s, double* cost, std::int64_t* edges, std::vector<std::string>& bad) {
    Reply r;
    const std::string err = call(xt::WireFormat::kSessionQuery, name(s), &r);
    if (!err.empty() || r.code != 0) {
      bad.push_back("query " + name(s) + " failed: " + err + r.body.substr(0, 120));
      return;
    }
    std::vector<long long> stable, hosts;
    if (!json_int_array(r.body, "stable", &stable) || !json_int_array(r.body, "hosts", &hosts) ||
        stable.size() != hosts.size()) {
      bad.push_back("snapshot arrays malformed");
      return;
    }
    const Shadow& sh = shadow_[s];
    if (stable.size() != sh.live.size()) {
      bad.push_back(name(s) + ": snapshot has " + std::to_string(stable.size()) + " nodes, model " +
                    std::to_string(sh.live.size()));
      return;
    }
    std::vector<long long> host_of(sh.parent.size(), -1);
    for (std::size_t i = 0; i < stable.size(); ++i) {
      if (stable[i] < 0 || static_cast<std::size_t>(stable[i]) >= host_of.size() ||
          sh.pos[static_cast<std::size_t>(stable[i])] < 0) {
        bad.push_back(name(s) + ": snapshot names a node the model does not have");
        return;
      }
      host_of[static_cast<std::size_t>(stable[i])] = hosts[i];
    }
    const xt::XTree host(kSessionHeight);
    std::int32_t max_d = 0;
    for (const NodeId v : sh.live) {
      if (v == 0) continue;
      const std::int32_t d = host.distance(
          static_cast<xt::VertexId>(host_of[static_cast<std::size_t>(v)]),
          static_cast<xt::VertexId>(host_of[static_cast<std::size_t>(sh.parent[static_cast<std::size_t>(v)])]));
      max_d = std::max(max_d, d);
      *cost += d;
      ++*edges;
    }
    const auto claimed = json_int_field(r.body, "dilation");
    if (!claimed || *claimed != max_d || max_d > kPolicy.max_dilation)
      bad.push_back(name(s) + ": claimed dilation " + (claimed ? std::to_string(*claimed) : "?") +
                    ", recomputed " + std::to_string(max_d));
  }

  Options opt_;
  // The writer's stream: batch targets and ops.  Set-up (growth and the
  // churn up to the edge-cost checkpoint) draws from a fixed stream, so
  // the grown sessions are a fixture shared by every seed: growth
  // histories, and the escalations they trigger, differ a lot from tree
  // to tree.  measure() reseeds it from --seed for the churn traffic.
  xt::Rng rng_{0x5e55107};
  xt::SessionConfig scfg_;
  std::unique_ptr<Hosted> server_;
  xt::NetClient setup_;  // blocking calls outside the window
  Channel writer_{false};
  Channel readers_[2]{Channel(false), Channel(false)};
  Shadow shadow_[kSessions];
  std::vector<xt::MutationOp> pending_;  // ops of the batch in flight
  std::vector<std::pair<bool, std::string>> script_[kSessions];  // (growth?, ops text)
  std::vector<std::string> warm_violations_;
  double edge_cost_mean_ = 0.0;
};

// ---- bulk-ingest ----------------------------------------------------------------

constexpr int kBulkBatches = 64;
constexpr int kBulkBatch = 16;   // records per bulk_embed call
constexpr int kBulkRepeats = 8;  // records per batch that repeat an earlier shape
// Distinct shapes are 70% n=240, 25% n=2032 and 5% n=8176 (serve-cold's
// proportions), in a fixed cycle of 20.  With this mix a 10 s run makes
// well over the thousand calls a p99 of the call latency needs, and
// each call still has 8 embeds for the pool's workers.
const NodeId kBulkSizes[3] = {exact_size(3), exact_size(6), exact_size(8)};
constexpr int kBulkSizeCycle[20] = {0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 2};

class BulkIngest final : public Workload {
 public:
  explicit BulkIngest(const Options& opt) : opt_(opt) {}
  ~BulkIngest() override {
    reader_.reset();
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove(path_, ec);
  }

  void setup() override {
    static std::atomic<int> instance{0};
    path_ = opt_.workdir + "/bulk-" + std::to_string(opt_.seed) + "-" + std::to_string(getpid()) +
            "-" + std::to_string(instance++) + ".xtb1";
    // The layout (which slots repeat, and which earlier shape) and the
    // verified records are the same for every seed, like the size and
    // family cycles: a verified n=8176 record makes its call several
    // times slower, so a seeded choice would move p99_ms by the seed.
    // The seed draws the shapes and the isomorphs.
    xt::Rng rng(stream_seed(opt_.seed, 800));
    xt::Rng layout(0xb01c);
    const Zipf zipf(kBulkBatch, 1.0);
    const auto& families = xt::tree_family_names();
    xt::CorpusWriter w(path_);
    std::uint64_t index = 0;
    std::size_t unique_count = 0;
    for (int b = 0; b < kBulkBatches; ++b) {
      // Which slots (never the first) repeat an earlier shape.
      std::vector<int> slots(kBulkBatch - 1);
      for (int i = 0; i < kBulkBatch - 1; ++i) slots[static_cast<std::size_t>(i)] = i + 1;
      for (std::size_t i = slots.size(); i > 1; --i) std::swap(slots[i - 1], slots[layout.below(i)]);
      std::vector<bool> repeat(kBulkBatch, false);
      for (int i = 0; i < kBulkRepeats; ++i) repeat[static_cast<std::size_t>(slots[static_cast<std::size_t>(i)])] = true;
      std::vector<xt::BinaryTree> uniques;
      std::set<std::pair<std::uint64_t, NodeId>> keys;
      std::vector<std::uint64_t> ids;
      for (int i = 0; i < kBulkBatch; ++i) {
        xt::BinaryTree t;
        if (repeat[static_cast<std::size_t>(i)]) {
          std::size_t rank = zipf.draw(layout);
          while (rank >= uniques.size()) rank = zipf.draw(layout);
          t = random_isomorph(uniques[rank], rng);
        } else {
          // Sizes and families cycle, so every seed's corpus carries the
          // same work and only the random shapes differ.
          const std::size_t k = unique_count++;
          const NodeId n = kBulkSizes[kBulkSizeCycle[k % 20]];
          t = xt::make_family_tree(families[k % families.size()], n, rng);
          uniques.push_back(t);
        }
        keys.insert({xt::canonical_hash(t), t.num_nodes()});
        w.add(t);
        ids.push_back(index++);
      }
      // Deterministic families can repeat a shape by chance; the
      // expectation counts distinct canonical keys.
      expect_embedded_.push_back(keys.size());
      batches_.push_back(std::move(ids));
    }
    w.finalize();
    reader_ = std::make_unique<xt::CorpusReader>(path_);
    opts_.theorem = xt::Theorem::kT1;
    opts_.verify_sample = 0.02;
    opts_.verify_seed = 1;
    // Warm the pool and the allocator on one batch.
    const xt::BulkResult r = xt::bulk_embed(*reader_, opts_, batches_[0]);
    if (std::string bad = check(r, 0); !bad.empty()) warm_violations_.push_back(bad);
  }

  void measure(double seconds, Pass& out) override {
    for (auto& v : warm_violations_) out.violation("set-up: " + v);
    const ProcUsage u0 = ProcUsage::now();
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<LatencyHist> slices(kSlices);
    double trees = 0, decoded = 0, deduped = 0;
    for (std::size_t b = 0; now_ns() < end; b = (b + 1) % batches_.size()) {
      const std::int64_t t0 = now_ns();
      const xt::BulkResult r = xt::bulk_embed(*reader_, opts_, batches_[b]);
      const std::int64_t t1 = now_ns();
      out.attempted += batches_[b].size();
      if (std::string bad = check(r, b); !bad.empty()) {
        out.violation(bad);
        out.failed += batches_[b].size();
      } else {
        out.ok += batches_[b].size();
      }
      decoded += static_cast<double>(r.stats.decoded);
      deduped += static_cast<double>(r.stats.deduped);
      if (t1 <= end) {
        slices[slice_of(t1, start, end)].add(static_cast<double>(t1 - t0) / 1e6);
        trees += static_cast<double>(batches_[b].size());
        if (b < 4) batch_wall_ns_[b].push_back(static_cast<double>(t1 - t0));
      }
    }
    const ProcUsage u1 = ProcUsage::now();
    out.cpu_ms = u1.cpu_ms - u0.cpu_ms;
    // A timed operation is one bulk_embed call; rps counts trees, the
    // unit a corpus user waits on.
    fold_slices(std::move(slices), static_cast<double>(end - start) / 1e9, out, kBulkBatch);
    out.views["trees_per_s"] = out.rps;
    // Edge cost over every batch's embeddings (fixed records: repeats
    // exactly for a seed), one drain per batch as in the window.
    xt::BulkOptions keep = opts_;
    keep.keep_embeddings = true;
    std::vector<xt::BulkRecordResult> kept;
    for (const auto& batch : batches_) {
      xt::BulkResult r = xt::bulk_embed(*reader_, keep, batch);
      for (auto& rec : r.records) kept.push_back(std::move(rec));
    }
    double cost = 0;
    std::int64_t edges = 0;
    for (const xt::BulkRecordResult& rec : kept) {
      if (!rec.embedding) {
        out.violation("bulk record without an embedding");
        continue;
      }
      const xt::BinaryTree t = reader_->materialize(rec.index);
      const xt::DilationProfile p =
          xt::dilation_profile_xtree(t, *rec.embedding, xt::XTree(rec.host_height));
      if (p.report.max > 3 || rec.load_factor != 16 ||
          rec.host_height != expected_host_param(xt::Theorem::kT1, t.num_nodes()))
        out.violation("bulk embedding outside Theorem 1's bounds");
      for (const std::int32_t d : p.per_edge) cost += d;
      edges += static_cast<std::int64_t>(p.per_edge.size());
    }
    out.edge_cost_mean = edges > 0 ? cost / static_cast<double>(edges) : 0.0;
    out.layout["loops"] = 0;
    out.layout["service_shards"] = 0;
    out.layout["router_link_workers"] = 0;
    out.layout["client_threads"] = 1;
    out.layout["connections"] = 0;
    out.layout["pool_workers"] = xt::ThreadPool::shared().num_threads();
    out.layout["process_threads"] = process_threads();
    if (rec_ == nullptr) return;
    out.layer["bulk.dedup_ratio"] = decoded > 0 ? deduped / decoded : 0.0;
    layer_proc(u0, u1, trees, out);
  }

  void replay(Pass& out) override {
    const std::uint64_t count = reader_->tree_count();
    std::vector<xt::CorpusReader::View> views(count);
    std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < count; ++i)
      if (!reader_->try_view(i, &views[i], nullptr)) out.violation("replay: corrupt corpus record");
    std::int64_t t1 = now_ns();
    rec_->record("bulk.decode", t0, t1);
    out.layer["bulk.decode_ns_per_tree"] = static_cast<double>(t1 - t0) / static_cast<double>(count);
    std::vector<xt::RawTreeRef> refs;
    double nodes = 0;
    for (const auto& v : views) {
      refs.push_back({v.num_nodes, v.left, v.right});
      nodes += v.num_nodes;
    }
    std::vector<std::uint64_t> digests(count);
    xt::CanonicalScratch scratch;
    t0 = now_ns();
    xt::canonical_hash_batch(refs, digests, scratch);
    t1 = now_ns();
    rec_->record("bulk.digest", t0, t1);
    out.layer["bulk.digest_ns_per_node"] = static_cast<double>(t1 - t0) / nodes;
    // The embeds of batches 0-3 (one per distinct shape), replayed with
    // the pipeline's options, against the same batches' wall time.
    std::vector<SentRequest> sample;
    double wall = 0;
    int walled = 0;
    for (std::size_t b = 0; b < 4 && b < batches_.size(); ++b) {
      std::set<std::pair<std::uint64_t, NodeId>> seen;
      for (const std::uint64_t i : batches_[b]) {
        if (!seen.insert({digests[i], views[i].num_nodes}).second) continue;
        const std::string payload = xt::encode_xtb1_record(reader_->materialize(i));
        sample.push_back({embed_frame(payload, 2, xt::Theorem::kT1, false), false, xt::Theorem::kT1, false});
      }
      if (!batch_wall_ns_[b].empty()) {
        wall += median(batch_wall_ns_[b]);
        ++walled;
      }
    }
    xt::ServiceConfig cfg;
    cfg.num_shards = 1;
    cfg.intra_embed_parallelism = opts_.intra_embed_parallelism;
    cfg.cache_capacity = opts_.dedup_capacity;
    const std::size_t before = rec_->size();
    replay_miss_path(sample, cfg, *rec_, {}, out);
    double embed_ns = 0;
    const std::vector<Span> spans = rec_->snapshot();
    for (std::size_t i = before; i < spans.size(); ++i)
      if (std::string_view(spans[i].name) == "core.embed") embed_ns += static_cast<double>(spans[i].duration_ns());
    const double workers = xt::ThreadPool::shared().num_threads() + 1.0;
    if (walled > 0 && wall > 0)
      out.layer["bulk.embed_core_share"] = embed_ns / (wall * workers);
    // Response encoding is not part of bulk ingestion.
    out.layer.erase("net.encode_us");
  }

 private:
  std::string check(const xt::BulkResult& r, std::size_t b) const {
    if (std::string bad = check_bulk_identity(r.stats); !bad.empty()) return bad;
    if (r.stats.rejected != 0 || r.stats.verify_failures != 0)
      return "bulk batch " + std::to_string(b) + ": " + std::to_string(r.stats.rejected) +
             " rejected, " + std::to_string(r.stats.verify_failures) + " verify failures";
    if (r.stats.embedded != expect_embedded_[b])
      return "bulk batch " + std::to_string(b) + ": embedded " + std::to_string(r.stats.embedded) +
             ", expected " + std::to_string(expect_embedded_[b]) + " distinct shapes";
    return "";
  }

  Options opt_;
  std::string path_;
  std::unique_ptr<xt::CorpusReader> reader_;
  xt::BulkOptions opts_;
  std::vector<std::vector<std::uint64_t>> batches_;
  std::vector<std::size_t> expect_embedded_;
  std::vector<double> batch_wall_ns_[4];
  std::vector<std::string> warm_violations_;
};

}  // namespace

std::unique_ptr<Workload> make_session_churn(const Options& opt) {
  return std::make_unique<SessionChurn>(opt);
}
std::unique_ptr<Workload> make_bulk_ingest(const Options& opt) {
  return std::make_unique<BulkIngest>(opt);
}

}  // namespace xtb
