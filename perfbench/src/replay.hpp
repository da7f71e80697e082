// The traced run's per-layer numbers.  Stages that run inside the
// server cannot be timed from the benchmark's own files while it
// serves, so after the timed window the benchmark thread replays a
// sample of the request bytes it sent through the same public calls,
// one span per call.  Every metric computed this way is labelled
// "replayed" in the per-layer table (layer_metric_table()).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"
#include "service/canonical_cache.hpp"
#include "service/service.hpp"

namespace xtb {

/// One request as sent on the wire, kept for replay.
struct SentRequest {
  std::string wire;  // xtn1 frame or HTTP request bytes
  bool http = false;
  xt::Theorem theorem = xt::Theorem::kT1;
  bool want_embedding = false;
};

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* how;  // "measured", "replayed" or "counted"
};

/// Every per-layer metric the traced run reports, in output order.
/// Workloads that leave a layer idle report 0 for its metrics.
[[nodiscard]] const std::vector<LayerMetric>& layer_metric_table();

/// Edge stages on recorded bytes: frame/HTTP decode, payload parse,
/// digest, cache probe against the live cache and, for hits, the
/// response encode.  Sets net.decode_ns, io.parse_us,
/// btree.digest_ns_per_node, service.cache_probe_ns and net.encode_us.
/// `cache_for(digest)` names the live cache that owns a digest (the
/// server's, or the owning shard's behind a router).
void replay_edge(const std::vector<SentRequest>& sample,
                 const std::function<xt::CanonicalCache*(std::uint64_t)>& cache_for,
                 xt::NodeId load, SpanRecorder& rec, Pass& out);

/// Miss-path stages as a service shard runs them (canonical form and
/// tree, embed with the service's budget and a reused arena, lift or
/// cube map, dilation audit, cache insert into a full scratch cache,
/// remap, response encode) plus the certificate chain.  With the
/// workload's backend spans it also sets service.unattributed_share:
/// over the sample, the share of the backend span (the median span of
/// the request's own size and theorem) that the replayed stages do not
/// cover -- queue wait, handoffs and contention.
void replay_miss_path(const std::vector<SentRequest>& sample,
                      const xt::ServiceConfig& cfg, SpanRecorder& rec,
                      const std::vector<Span>& backend_spans, Pass& out);

/// net.* and service.* counters from /stats snapshots taken before and
/// after the window on the servers that own a cache, plus the edge's
/// bytes per response.
void layer_from_stats(const std::vector<JsonValue>& before,
                      const std::vector<JsonValue>& after, Pass& out);

/// proc.* over the window.
void layer_proc(const ProcUsage& a, const ProcUsage& b, double ops, Pass& out);

/// Parses a request's payload into a tree (paren, Newick or xtb1).
[[nodiscard]] bool decode_request(const SentRequest& req, xt::BinaryTree* tree,
                                  std::string* payload);

}  // namespace xtb
