// Self-tests of the benchmark's own arithmetic and gate: the tail
// percentile rule, span self times, the correctness gate rejecting
// tampered responses, and the accounting identities.  Exit code 0 when
// every check passes.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "btree/canonical.hpp"
#include "btree/generators.hpp"
#include "core/xtree_embedder.hpp"
#include "embedding/metrics.hpp"
#include "gate.hpp"
#include "inputs.hpp"
#include "json.hpp"
#include "net/wire.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_percentile_rule() {
  const xtb::Summary a = xtb::summarize(iota(1000));
  expect(a.count == 1000 && a.p50 == 500 && a.tail_pct == 99 && a.tail == 990,
         "1000 samples: p50 500, p99 990 with 10 samples beyond");
  const xtb::Summary b = xtb::summarize(iota(999));
  expect(b.tail_pct == 95 && xtb::samples_beyond(999, 95) >= 10,
         "999 samples: p99 has 9 beyond, so the tail falls back to p95");
  const xtb::Summary c = xtb::summarize(iota(25));
  expect(c.tail_pct == 50 && c.p50 == 13, "25 samples: only the median qualifies");
  const xtb::Summary d = xtb::summarize(iota(100000));
  expect(d.tail_pct == 99, "a large sample still reports p99, not p99.9");
  expect(xtb::summarize({}).count == 0, "empty sample");
  xtb::LatencyHist h;
  for (const double v : iota(1000)) h.add(v / 100.0);  // 0.01 .. 10 ms
  const xtb::Summary hs = h.summary();
  expect(hs.count == 1000 && hs.tail_pct == 99 && std::abs(hs.p50 - 5.0) < 0.005 &&
             std::abs(hs.tail - 9.9) < 0.01,
         "histogram: same rule, values within its 0.1% bucket width");
}

void test_self_time() {
  using xtb::Span;
  std::vector<Span> spans{
      {"root", 0, 100, xtb::kNoParent, 1},
      {"a", 10, 40, 0, 1},   // overlaps b: union [10, 60]
      {"b", 30, 60, 0, 1},
      {"c", 90, 120, 0, 1},  // clipped to the parent: [90, 100]
      {"a.x", 15, 25, 1, 1},
  };
  const std::vector<std::int64_t> self = xtb::self_times_ns(spans);
  expect(self[0] == 40, "root self time = 100 - |[10,60] u [90,100]| = 40");
  expect(self[1] == 20, "a self time = 30 - 10 = 20");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 10, "leaf spans keep their duration");
}

void test_gate() {
  xt::Rng rng(11);
  const xt::BinaryTree tree = xt::make_random_tree(xtb::exact_size(3), rng);
  auto res = xt::XTreeEmbedder::embed(tree);
  const xt::XTree host(res.stats.height);
  xt::EmbedResponse r;
  r.status = xt::RequestStatus::kOk;
  r.host_height = res.stats.height;
  r.dilation = xt::dilation_xtree(tree, res.embedding, host).max;
  r.load_factor = res.embedding.load_factor();
  r.embedding = res.embedding;
  const std::string good = xt::embed_response_json(r, true);
  const xtb::FullCheck fc = xtb::verify_full(xt::Theorem::kT1, tree, good);
  expect(fc.error.empty() && fc.edges == tree.num_nodes() - 1,
         "a genuine T1 response passes the certificate chain: " + fc.error);

  xt::EmbedResponse wrong = r;
  wrong.dilation = 4;
  expect(!xtb::check_claims(xt::Theorem::kT1, tree.num_nodes(),
                            xt::embed_response_json(wrong, false)).empty(),
         "a T1 response claiming dilation 4 is rejected");
  xt::EmbedResponse lie = r;
  lie.dilation = r.dilation == 1 ? 2 : 1;  // within the bound, but false
  expect(!xtb::verify_full(xt::Theorem::kT1, tree, xt::embed_response_json(lie, true)).error.empty(),
         "a response whose claimed dilation the oracle does not reproduce is rejected");
  xt::EmbedResponse moved = r;
  xt::Embedding emb(tree.num_nodes(), host.num_vertices());
  for (xt::NodeId v = 0; v < tree.num_nodes(); ++v) emb.place(v, 0);
  moved.embedding = emb;
  expect(!xtb::verify_full(xt::Theorem::kT1, tree, xt::embed_response_json(moved, true)).error.empty(),
         "an embedding that piles every node on one vertex is rejected");

  const std::string miss = xt::embed_response_json(r, false);
  const std::string prefix = xtb::hit_prefix_from_miss(xtb::response_prefix(miss));
  xt::EmbedResponse hit = r;
  hit.cache_hit = true;
  hit.served_seq = 0;
  expect(xtb::check_hit_bytes(xt::embed_response_json(hit, false), prefix).empty(),
         "hit bytes equal to the fresh embed's pass");
  xt::EmbedResponse bad_hit = hit;
  bad_hit.host_height += 1;
  expect(!xtb::check_hit_bytes(xt::embed_response_json(bad_hit, false), prefix).empty(),
         "hit bytes that differ from the fresh embed's are rejected");
  expect(!xtb::check_hit_bytes(miss, prefix).empty(), "a miss is not accepted as a hit");
}

void test_identities() {
  std::string err;
  const auto good = xtb::parse_json(
      R"({"service": {"completed": 7}, "net": {"inline_hits": 3},
          "router": {"submitted": 10, "forwarded": 8, "shard_down_rejections": 1,
                     "overloaded_rejections": 1, "shutdown_rejections": 0},
          "sessions": {"ops_applied": 5, "ops_repaired": 3, "ops_escalated": 1, "ops_rejected": 1}})",
      &err);
  expect(good.has_value(), "stats document parses: " + err);
  expect(xtb::check_serve_identity(*good, 10).empty(), "ok == completed + inline_hits holds");
  expect(!xtb::check_serve_identity(*good, 11).empty(), "one unaccounted response is caught");
  expect(xtb::check_router_identity(*good).empty(), "router identity holds");
  expect(xtb::check_session_identity(*good).empty(), "session identity holds");
  const auto bad = xtb::parse_json(
      R"({"router": {"submitted": 10, "forwarded": 9, "shard_down_rejections": 1,
          "overloaded_rejections": 1, "shutdown_rejections": 0},
          "sessions": {"ops_applied": 6, "ops_repaired": 3, "ops_escalated": 1, "ops_rejected": 1}})",
      &err);
  expect(!xtb::check_router_identity(*bad).empty(), "router identity violation is caught");
  expect(!xtb::check_session_identity(*bad).empty(), "session identity violation is caught");
  xt::BulkStats bs;
  bs.decoded = 10;
  bs.embedded = 5;
  bs.deduped = 4;
  bs.rejected = 0;
  expect(!xtb::check_bulk_identity(bs).empty(), "bulk identity violation is caught");
}

void test_inputs() {
  xt::Rng a(5), b(5);
  const xt::BinaryTree t = xt::make_random_tree(496, a);
  const xt::BinaryTree u = xt::make_random_tree(496, b);
  expect(t.to_paren() == u.to_paren(), "the same seed gives the same tree");
  const xt::BinaryTree iso = xtb::random_isomorph(t, a);
  expect(iso.num_nodes() == t.num_nodes() && xt::canonical_hash(iso) == xt::canonical_hash(t),
         "a random isomorph keeps the canonical shape");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_self_time();
  test_gate();
  test_identities();
  test_inputs();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
