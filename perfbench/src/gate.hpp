// The benchmark's correctness gate.  Every response is checked against
// the theorem's bounds at exact-form sizes; a seeded sample of full
// embeddings is re-validated through the certificate chain; cache hits
// must carry the same bytes a fresh embed of that shape produced; and
// the /stats accounting identities must hold.  Any violation fails the
// run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "btree/binary_tree.hpp"
#include "bulk/pipeline.hpp"
#include "json.hpp"
#include "service/request.hpp"

namespace xtb {

struct TheoremBounds {
  std::int32_t dilation = 0;
  xt::NodeId load = 0;
};

/// Theorem 1: dil <= 3, load 16.  Theorem 2: injective, dil <= 11.
/// Theorem 3: dil <= 4, load 16.
[[nodiscard]] TheoremBounds bounds_for(xt::Theorem t);

/// Host X-tree height (T1, T2) or cube dimension (T3) an exact-form
/// guest of n = 16 (2^{r+1} - 1) nodes must land in; -1 when n is not
/// of that form.
[[nodiscard]] std::int32_t expected_host_param(xt::Theorem t, xt::NodeId n);

/// Checks the scalar claims of one embed response body: status ok,
/// optimal host, dilation within the bound, load exactly the bound.
/// `expect_hit` (when not -1) also pins the cache_hit flag.  Returns
/// "" or the violation.
[[nodiscard]] std::string check_claims(xt::Theorem t, xt::NodeId n,
                                       std::string_view body,
                                       int expect_hit = -1);

struct FullCheck {
  std::string error;          // "" when the certificate chain accepts
  double edge_cost_sum = 0;   // sum of dilation over guest edges
  std::int64_t edges = 0;
};

/// Parses the response's embedding array and re-validates the claims
/// through the certificate chain (xt::verify_theorem_certificate):
/// placements, recounted load, oracle dilation, theorem bounds.
[[nodiscard]] FullCheck verify_full(xt::Theorem t, const xt::BinaryTree& guest,
                                    std::string_view body);

/// Response bytes up to the per-request tail (", "served_seq": ...).
[[nodiscard]] std::string_view response_prefix(std::string_view body);

/// The prefix a cache hit must carry, derived from a fresh embed's
/// (miss) response prefix of the same shape.  "" when `miss_prefix` is
/// not a miss response.
[[nodiscard]] std::string hit_prefix_from_miss(std::string_view miss_prefix);

/// "" when `body` is a hit response whose prefix equals `expected`.
[[nodiscard]] std::string check_hit_bytes(std::string_view body,
                                          std::string_view expected);

/// ok == service.completed + net.inline_hits for one server's /stats.
[[nodiscard]] std::string check_serve_identity(const JsonValue& stats,
                                               std::uint64_t client_ok);
/// submitted == forwarded + shard_down + overloaded + shutdown.
[[nodiscard]] std::string check_router_identity(const JsonValue& stats);
/// ops_applied == ops_repaired + ops_escalated + ops_rejected.
[[nodiscard]] std::string check_session_identity(const JsonValue& stats);
/// decoded == embedded + deduped + rejected.
[[nodiscard]] std::string check_bulk_identity(const xt::BulkStats& stats);

}  // namespace xtb
