#include "replay.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "btree/canonical.hpp"
#include "core/injective_lift.hpp"
#include "core/lemma3.hpp"
#include "core/xtree_embedder.hpp"
#include "embedding/metrics.hpp"
#include "gate.hpp"
#include "io/newick.hpp"
#include "io/serialize.hpp"
#include "net/http.hpp"
#include "net/wire.hpp"
#include "topology/hypercube.hpp"
#include "util/parallel.hpp"

namespace xtb {

const std::vector<LayerMetric>& layer_metric_table() {
  static const std::vector<LayerMetric> table{
      {"net.hit_rtt_us.p50", "us", "measured"},
      {"net.inline_hit_ratio", "ratio", "counted"},
      {"net.decode_ns", "ns", "replayed"},
      {"net.edge_self_us.p50", "us", "measured"},
      {"net.bytes_out_per_req", "bytes", "counted"},
      {"net.encode_us", "us", "replayed"},
      {"btree.digest_ns_per_node", "ns", "replayed"},
      {"btree.canon_form_us", "us", "replayed"},
      {"io.parse_us", "us", "replayed"},
      {"service.backend_us.p50", "us", "measured"},
      {"service.backend_us.p99", "us", "measured"},
      {"service.unattributed_share", "ratio", "replayed"},
      {"service.cache_probe_ns", "ns", "replayed"},
      {"service.cache_insert_us", "us", "replayed"},
      {"service.cache_hit_ratio", "ratio", "counted"},
      {"service.coalesced", "count", "counted"},
      {"service.cache_evictions_per_req", "ratio", "counted"},
      {"core.embed_ms.n2032", "ms", "replayed"},
      {"core.embed_ms.n8176", "ms", "replayed"},
      {"core.embed_ms.n32752", "ms", "replayed"},
      {"core.split_sweep_share", "ratio", "replayed"},
      {"core.lift_ms", "ms", "replayed"},
      {"core.cube_ms", "ms", "replayed"},
      {"core.adjust_shifts_per_knode", "count", "replayed"},
      {"core.lemma_splits_per_knode", "count", "replayed"},
      {"core.repair_placements", "count", "replayed"},
      {"core.discipline_violations", "count", "replayed"},
      {"core.dyn_op_us", "us", "replayed"},
      {"embedding.dilation_profile_ms", "ms", "replayed"},
      {"verify.chain_ms", "ms", "replayed"},
      {"router.backend_us.p50", "us", "measured"},
      {"router.hop_us.p50", "us", "measured"},
      {"router.shard_imbalance", "ratio", "counted"},
      {"router.queue_depth.max", "count", "measured"},
      {"session.mutate_us.p50", "us", "replayed"},
      {"session.read_us.p50", "us", "replayed"},
      {"session.escalated_per_kop", "count", "counted"},
      {"session.repaired_ratio", "ratio", "counted"},
      {"session.nodes_touched_per_op", "count", "counted"},
      {"session.queue_depth.max", "count", "measured"},
      {"session.snapshots_per_s", "1/s", "counted"},
      {"bulk.decode_ns_per_tree", "ns", "replayed"},
      {"bulk.digest_ns_per_node", "ns", "replayed"},
      {"bulk.dedup_ratio", "ratio", "counted"},
      {"bulk.embed_core_share", "ratio", "replayed"},
      {"proc.cpu_ms_per_op", "ms", "measured"},
      {"proc.ctx_switches_per_op", "count", "measured"},
      {"proc.threads", "count", "measured"},
      {"proc.peak_rss_mb.window", "MB", "measured"},
      {"trace.overhead_pct", "%", "measured"},
      {"rps", "1/s", "measured"},
      {"p50_ms", "ms", "measured"},
      {"p99_ms", "ms", "measured"},
      {"mutate_ops_per_s", "1/s", "measured"},
      {"mutate_p50_ms", "ms", "measured"},
      {"mutate_p99_ms", "ms", "measured"},
      {"read_p50_ms", "ms", "measured"},
      {"read_p99_ms", "ms", "measured"},
      {"trees_per_s", "1/s", "measured"},
  };
  return table;
}

namespace {

double med(std::vector<double> v) { return median(std::move(v)); }

/// Times `fn` as a span named `name` under `parent`; returns ns.
template <typename Fn>
double timed(SpanRecorder& rec, const char* name, std::uint32_t parent, Fn&& fn) {
  const std::int64_t a = now_ns();
  fn();
  const std::int64_t b = now_ns();
  rec.record(name, a, b, parent);
  return static_cast<double>(b - a);
}

bool decode_wire(const SentRequest& req, std::string* payload, std::uint8_t* format) {
  if (req.http) {
    xt::HttpParser p;
    p.feed(req.wire);
    xt::HttpRequest r;
    if (p.next(&r) != xt::HttpParser::Result::kRequest) return false;
    *payload = std::move(r.body);
    *format = static_cast<std::uint8_t>(xt::sniff_newick(*payload) ? xt::WireFormat::kNewick
                                                                   : xt::WireFormat::kParen);
    return true;
  }
  xt::FrameParser p;
  p.feed(req.wire);
  xt::WireFrame f;
  if (p.next(&f) != xt::FrameParser::Result::kFrame) return false;
  *payload = std::move(f.payload);
  *format = f.format;
  return true;
}

bool parse_payload(const std::string& payload, std::uint8_t format, xt::BinaryTree* tree) {
  switch (static_cast<xt::WireFormat>(format)) {
    case xt::WireFormat::kParen: {
      auto r = xt::try_parse_tree(payload);
      if (!r.ok()) return false;
      *tree = std::move(r.tree);
      return true;
    }
    case xt::WireFormat::kNewick: {
      auto r = xt::try_parse_newick(payload);
      if (!r.ok()) return false;
      *tree = std::move(r.tree);
      return true;
    }
    case xt::WireFormat::kXtb1Record: {
      std::string err;
      *tree = xt::decode_xtb1_record(payload, &err);
      return err.empty();
    }
    default:
      return false;
  }
}

}  // namespace

bool decode_request(const SentRequest& req, xt::BinaryTree* tree, std::string* payload) {
  std::uint8_t format = 0;
  return decode_wire(req, payload, &format) && parse_payload(*payload, format, tree);
}

void replay_edge(const std::vector<SentRequest>& sample,
                 const std::function<xt::CanonicalCache*(std::uint64_t)>& cache_for,
                 xt::NodeId load, SpanRecorder& rec, Pass& out) {
  std::vector<double> decode, parse, probe, encode;
  double digest_ns = 0.0, digest_nodes = 0.0;
  xt::CanonicalScratch scratch;
  std::string frame_out;
  for (const SentRequest& req : sample) {
    const std::uint32_t root = rec.open("replay.edge");
    std::string payload;
    std::uint8_t format = 0;
    bool ok = false;
    decode.push_back(timed(rec, "net.decode", root, [&] { ok = decode_wire(req, &payload, &format); }));
    if (!ok) {
      out.violation("replay: recorded request does not decode");
      rec.close(root);
      continue;
    }
    xt::BinaryTree tree;
    parse.push_back(timed(rec, "io.parse", root, [&] { ok = parse_payload(payload, format, &tree); }));
    if (!ok) {
      out.violation("replay: recorded payload does not parse");
      rec.close(root);
      continue;
    }
    std::uint64_t h = 0;
    digest_ns += timed(rec, "btree.digest", root, [&] {
      h = xt::canonical_hash(tree.num_nodes(), tree.left_data(), tree.right_data(), scratch);
    });
    digest_nodes += tree.num_nodes();
    if (xt::CanonicalCache* live_cache = cache_for(h); live_cache != nullptr) {
      const xt::CacheKey key{h, tree.num_nodes(), req.theorem, load};
      xt::EmbedResponse r;
      bool hit = false;
      probe.push_back(timed(rec, "service.cache_probe", root, [&] {
        hit = live_cache->with_entry(key, [&](const xt::CanonicalCache::Entry& e) {
          const xt::CachedEmbedding& ce = e.value();
          r.status = xt::RequestStatus::kOk;
          r.host_height = ce.host_height;
          r.dilation = ce.dilation;
          r.load_factor = ce.load_factor;
          r.cache_hit = true;
        });
      }));
      if (hit && !req.want_embedding) {
        encode.push_back(timed(rec, "net.encode", root, [&] {
          std::string body;
          xt::append_embed_response_prefix(body, r, false);
          xt::append_embed_response_tail(body, 0, 0.01);
          frame_out.clear();
          if (req.http) {
            xt::append_http_response(frame_out, 200, body, "application/json", true, {});
          } else {
            xt::WireFrame f;
            xt::encode_frame_into(frame_out, f, body);
          }
        }));
      }
    }
    rec.close(root);
  }
  out.layer["net.decode_ns"] = med(decode);
  out.layer["io.parse_us"] = med(parse) / 1e3;
  out.layer["btree.digest_ns_per_node"] = digest_nodes > 0 ? digest_ns / digest_nodes : 0.0;
  out.layer["service.cache_probe_ns"] = med(probe);
  if (!encode.empty()) out.layer["net.encode_us"] = med(encode) / 1e3;
}

void replay_miss_path(const std::vector<SentRequest>& sample, const xt::ServiceConfig& cfg,
                      SpanRecorder& rec, const std::vector<Span>& backend_spans, Pass& out) {
  std::vector<double> canon, lift, cube, prof, insert, chain, encode;
  std::map<std::uint64_t, std::vector<double>> backend_by_key;
  for (const Span& s : backend_spans)
    backend_by_key[s.key].push_back(static_cast<double>(s.duration_ns()));
  double covered_ns = 0.0, backend_ns = 0.0;
  std::map<xt::NodeId, std::vector<double>> embed_by_n;
  double embed_ns = 0.0, sweep_ns = 0.0, knodes = 0.0;
  double shifts = 0.0, splits = 0.0, repairs = 0.0, violations = 0.0;
  xt::XTreeEmbedder::EmbedArena arena;
  // The service's per-embed budget: 0 divides the pool among shards.
  const unsigned pool_threads = xt::ThreadPool::shared().num_threads();
  const unsigned shards = std::max(1u, cfg.num_shards);
  const int budget = cfg.intra_embed_parallelism > 0
                         ? cfg.intra_embed_parallelism
                         : static_cast<int>(std::max(1u, (pool_threads + 1) / shards));
  // A full scratch cache of the service's capacity: every insert evicts.
  xt::CanonicalCache scratch_cache(std::max<std::size_t>(1, cfg.cache_capacity));
  std::uint64_t filler = 1;
  for (std::size_t i = 0; i < scratch_cache.capacity() * 2; ++i)
    scratch_cache.insert(xt::CacheKey{filler++, 1, xt::Theorem::kT1, 16}, xt::CachedEmbedding{});

  for (const SentRequest& req : sample) {
    xt::BinaryTree guest;
    std::string payload;
    if (!decode_request(req, &guest, &payload)) {
      out.violation("replay: recorded request does not decode");
      continue;
    }
    const xt::NodeId n = guest.num_nodes();
    const std::uint32_t root = rec.open("replay.miss");
    double stages = 0.0;
    xt::CanonicalForm form;
    xt::BinaryTree ct;
    const double c_ns = timed(rec, "btree.canon_form", root, [&] {
      form = xt::canonical_form(guest);
      ct = xt::canonical_tree(guest, form);
    });
    canon.push_back(c_ns);
    stages += c_ns;

    xt::XTreeEmbedder::Options o;
    o.load = req.theorem == xt::Theorem::kT1 ? cfg.load : 16;
    o.intra_embed_parallelism = req.theorem == xt::Theorem::kT3 ? 1 : budget;
    std::optional<xt::XTreeEmbedder::Result> res;
    const double e_ns = timed(rec, "core.embed", root,
                              [&] { res = xt::XTreeEmbedder::embed(ct, o, arena); });
    stages += e_ns;
    embed_by_n[n].push_back(e_ns);
    embed_ns += e_ns;
    sweep_ns += static_cast<double>(res->stats.split_sweep_ns);
    knodes += n / 1000.0;
    shifts += static_cast<double>(res->stats.adjust_shifts);
    splits += static_cast<double>(res->stats.lemma_splits);
    repairs += static_cast<double>(res->stats.repair_placements);
    violations += static_cast<double>(res->stats.discipline_violations);

    xt::Embedding served = std::move(res->embedding);
    std::int32_t param = res->stats.height;
    xt::VertexId host_vertices = served.num_host_vertices();
    std::int32_t dilation = 0;
    if (req.theorem == xt::Theorem::kT2) {
      std::optional<xt::InjectiveLift> l;
      const double l_ns = timed(rec, "core.lift", root,
                                [&] { l = xt::lift_injective(ct, served, xt::XTree(param)); });
      lift.push_back(l_ns);
      stages += l_ns;
      served = std::move(l->embedding);
      param = l->host_height;
      host_vertices = served.num_host_vertices();
    } else if (req.theorem == xt::Theorem::kT3) {
      const double q_ns = timed(rec, "core.cube", root, [&] {
        const xt::XTree x(param);
        const std::int32_t dim = xt::lemma3_dimension(x);
        xt::Embedding cubed(n, xt::Hypercube(dim).num_vertices());
        for (xt::NodeId v = 0; v < n; ++v) cubed.place(v, xt::lemma3_map(x, served.host_of(v)));
        served = std::move(cubed);
        param = dim;
      });
      cube.push_back(q_ns);
      stages += q_ns;
      host_vertices = served.num_host_vertices();
    }
    const double p_ns = timed(rec, "embedding.dilation_profile", root, [&] {
      dilation = req.theorem == xt::Theorem::kT3
                     ? xt::dilation_profile_hypercube(ct, served, xt::Hypercube(param)).report.max
                     : xt::dilation_profile_xtree(ct, served, xt::XTree(param)).report.max;
    });
    prof.push_back(p_ns);
    stages += p_ns;

    xt::CachedEmbedding ce;
    ce.canonical_assign.resize(static_cast<std::size_t>(n));
    for (xt::NodeId v = 0; v < n; ++v) ce.canonical_assign[static_cast<std::size_t>(v)] = served.host_of(v);
    ce.host_vertices = host_vertices;
    ce.host_height = param;
    ce.dilation = dilation;
    ce.load_factor = served.load_factor();
    xt::EmbedResponse resp;
    resp.status = xt::RequestStatus::kOk;
    resp.host_height = param;
    resp.dilation = dilation;
    resp.load_factor = ce.load_factor;
    const double i_ns = timed(rec, "service.cache_insert", root, [&] {
      scratch_cache.insert(xt::CacheKey{form.hash, n, req.theorem, cfg.load}, ce);
    });
    insert.push_back(i_ns);
    stages += i_ns;
    stages += timed(rec, "service.remap", root, [&] {
      xt::Embedding emb(n, host_vertices);
      for (xt::NodeId v = 0; v < n; ++v)
        emb.place(v, ce.canonical_assign[static_cast<std::size_t>(form.to_canonical[static_cast<std::size_t>(v)])]);
      resp.embedding = std::move(emb);
    });
    std::string frame_out;
    const double enc_ns = timed(rec, "net.encode", root, [&] {
      const std::string body = xt::embed_response_json(resp, req.want_embedding);
      xt::WireFrame f;
      xt::encode_frame_into(frame_out, f, body);
    });
    encode.push_back(enc_ns);
    stages += enc_ns;
    rec.close(root);
    if (const auto it = backend_by_key.find(span_key(n, req.theorem)); it != backend_by_key.end()) {
      covered_ns += stages;
      backend_ns += med(it->second);
    }

    // The certificate chain on the served embedding (not on the serving
    // path; reported as its own stage).
    chain.push_back(timed(rec, "verify.chain", kNoParent, [&] {
      const FullCheck fc = verify_full(req.theorem, guest,
                                       xt::embed_response_json(resp, true));
      if (!fc.error.empty()) out.violation("replay: certificate chain rejects: " + fc.error);
    }));
  }
  out.layer["btree.canon_form_us"] = med(canon) / 1e3;
  for (const xt::NodeId n : {2032, 8176, 32752}) {
    const auto it = embed_by_n.find(n);
    out.layer["core.embed_ms.n" + std::to_string(n)] = it == embed_by_n.end() ? 0.0 : med(it->second) / 1e6;
  }
  out.layer["core.split_sweep_share"] = embed_ns > 0 ? sweep_ns / embed_ns : 0.0;
  out.layer["core.lift_ms"] = med(lift) / 1e6;
  out.layer["core.cube_ms"] = med(cube) / 1e6;
  out.layer["core.adjust_shifts_per_knode"] = knodes > 0 ? shifts / knodes : 0.0;
  out.layer["core.lemma_splits_per_knode"] = knodes > 0 ? splits / knodes : 0.0;
  out.layer["core.repair_placements"] = repairs;
  out.layer["core.discipline_violations"] = violations;
  out.layer["embedding.dilation_profile_ms"] = med(prof) / 1e6;
  out.layer["service.cache_insert_us"] = med(insert) / 1e3;
  out.layer["verify.chain_ms"] = med(chain) / 1e6;
  out.layer["net.encode_us"] = med(encode) / 1e3;
  if (backend_ns > 0) out.layer["service.unattributed_share"] = 1.0 - covered_ns / backend_ns;
}

void layer_from_stats(const std::vector<JsonValue>& before, const std::vector<JsonValue>& after,
                      Pass& out) {
  double requests = 0, inline_hits = 0, bytes_out = 0, responses = 0;
  double hits = 0, misses = 0, coalesced = 0, evictions = 0;
  const auto delta = [&](std::size_t i, const char* path) {
    return after[i].num(path).value_or(0.0) - before[i].num(path).value_or(0.0);
  };
  for (std::size_t i = 0; i < before.size() && i < after.size(); ++i) {
    requests += delta(i, "net.frames_received") + delta(i, "net.http_requests");
    inline_hits += delta(i, "net.inline_hits");
    bytes_out += delta(i, "net.bytes_out");
    responses += delta(i, "net.responses_sent");
    hits += delta(i, "service.cache_hits");
    misses += delta(i, "service.cache_misses");
    coalesced += delta(i, "service.coalesced");
    evictions += delta(i, "service.cache_evictions");
  }
  // The service counts queued hits only; inline hits are hits too.
  out.layer["net.inline_hit_ratio"] = requests > 0 ? inline_hits / requests : 0.0;
  out.layer["net.bytes_out_per_req"] = responses > 0 ? bytes_out / responses : 0.0;
  const double all_hits = hits + inline_hits;
  out.layer["service.cache_hit_ratio"] = all_hits + misses > 0 ? all_hits / (all_hits + misses) : 0.0;
  out.layer["service.coalesced"] = coalesced;
  out.layer["service.cache_evictions_per_req"] = requests > 0 ? evictions / requests : 0.0;
}

void layer_proc(const ProcUsage& a, const ProcUsage& b, double ops, Pass& out) {
  out.layer["proc.cpu_ms_per_op"] = ops > 0 ? (b.cpu_ms - a.cpu_ms) / ops : 0.0;
  out.layer["proc.ctx_switches_per_op"] = ops > 0 ? (b.ctx_switches - a.ctx_switches) / ops : 0.0;
  out.layer["proc.threads"] = static_cast<double>(process_threads());
}

}  // namespace xtb
