#include "gate.hpp"

#include <sstream>

#include "embedding/embedding.hpp"
#include "embedding/metrics.hpp"
#include "io/certificate.hpp"
#include "topology/hypercube.hpp"
#include "topology/xtree.hpp"
#include "verify/certificate_chain.hpp"

namespace xtb {

namespace {
constexpr std::string_view kTailKey = ", \"served_seq\":";
constexpr std::string_view kMissFlag = "\"cache_hit\": false";
constexpr std::string_view kHitFlag = "\"cache_hit\": true";

std::int32_t exact_height(xt::NodeId n) {
  for (int r = 0; r < 24; ++r)
    if (16 * ((1 << (r + 1)) - 1) == n) return r;
  return -1;
}
}  // namespace

TheoremBounds bounds_for(xt::Theorem t) {
  switch (t) {
    case xt::Theorem::kT1: return {3, 16};
    case xt::Theorem::kT2: return {11, 1};
    case xt::Theorem::kT3: return {4, 16};
  }
  return {};
}

std::int32_t expected_host_param(xt::Theorem t, xt::NodeId n) {
  const std::int32_t r = exact_height(n);
  if (r < 0) return -1;
  switch (t) {
    case xt::Theorem::kT1: return r;
    case xt::Theorem::kT2: return r + 4;
    case xt::Theorem::kT3: return r + 1;  // n = 16 (2^{r+1} - 1) -> Q_{r+1}
  }
  return -1;
}

std::string check_claims(xt::Theorem t, xt::NodeId n, std::string_view body,
                         int expect_hit) {
  std::ostringstream os;
  const auto status = json_string_field(body, "status");
  if (!status || *status != "ok") {
    os << xt::theorem_name(t) << " n=" << n << ": status "
       << (status ? *status : std::string("missing"));
    return os.str();
  }
  const auto height = json_int_field(body, "host_height");
  const auto dil = json_int_field(body, "dilation");
  const auto load = json_int_field(body, "load_factor");
  const auto hit = json_bool_field(body, "cache_hit");
  if (!height || !dil || !load || !hit) {
    os << xt::theorem_name(t) << " n=" << n << ": response lacks a claim field";
    return os.str();
  }
  const TheoremBounds b = bounds_for(t);
  const std::int32_t want_host = expected_host_param(t, n);
  if (*height != want_host) {
    os << xt::theorem_name(t) << " n=" << n << ": host " << *height
       << " is not the optimal " << want_host;
  } else if (*dil > b.dilation || *dil < 1) {
    os << xt::theorem_name(t) << " n=" << n << ": dilation " << *dil
       << " outside [1, " << b.dilation << "]";
  } else if (*load != b.load) {
    os << xt::theorem_name(t) << " n=" << n << ": load " << *load
       << " != " << b.load;
  } else if (expect_hit >= 0 && *hit != (expect_hit == 1)) {
    os << xt::theorem_name(t) << " n=" << n << ": cache_hit " << *hit
       << ", expected " << (expect_hit == 1);
  }
  return os.str();
}

FullCheck verify_full(xt::Theorem t, const xt::BinaryTree& guest,
                      std::string_view body) {
  FullCheck out;
  if (std::string bad = check_claims(t, guest.num_nodes(), body); !bad.empty()) {
    out.error = bad;
    return out;
  }
  std::vector<long long> hosts;
  if (!json_int_array(body, "embedding", &hosts) ||
      hosts.size() != static_cast<std::size_t>(guest.num_nodes())) {
    out.error = "embedding array missing or of the wrong length";
    return out;
  }
  const std::int32_t param = static_cast<std::int32_t>(*json_int_field(body, "host_height"));
  xt::TheoremCertificate cert;
  cert.guest_nodes = guest.num_nodes();
  cert.host_param = param;
  cert.dilation = static_cast<std::int32_t>(*json_int_field(body, "dilation"));
  cert.load_factor = static_cast<xt::NodeId>(*json_int_field(body, "load_factor"));
  const TheoremBounds b = bounds_for(t);
  cert.dilation_bound = b.dilation;
  cert.load_bound = b.load;
  xt::VertexId host_vertices = 0;
  switch (t) {
    case xt::Theorem::kT1:
      cert.link = xt::ChainLink::kXTree;
      host_vertices = xt::XTree(param).num_vertices();
      break;
    case xt::Theorem::kT2:
      cert.link = xt::ChainLink::kInjectiveXTree;
      host_vertices = xt::XTree(param).num_vertices();
      break;
    case xt::Theorem::kT3:
      cert.link = xt::ChainLink::kHypercubeLoad16;
      host_vertices = xt::Hypercube(param).num_vertices();
      break;
  }
  xt::Embedding emb(guest.num_nodes(), host_vertices);
  for (std::size_t v = 0; v < hosts.size(); ++v) {
    if (hosts[v] < 0 || hosts[v] >= host_vertices) {
      out.error = "embedding names a vertex outside the host";
      return out;
    }
    emb.place(static_cast<xt::NodeId>(v), static_cast<xt::VertexId>(hosts[v]));
  }
  cert.guest_fingerprint = xt::guest_fingerprint(guest);
  cert.assignment_fingerprint = xt::assignment_fingerprint(emb);
  out.error = xt::verify_theorem_certificate(cert, guest, emb);
  if (!out.error.empty()) return out;
  const xt::DilationProfile prof =
      t == xt::Theorem::kT3
          ? xt::dilation_profile_hypercube(guest, emb, xt::Hypercube(param))
          : xt::dilation_profile_xtree(guest, emb, xt::XTree(param));
  for (const std::int32_t d : prof.per_edge) out.edge_cost_sum += d;
  out.edges = static_cast<std::int64_t>(prof.per_edge.size());
  return out;
}

std::string_view response_prefix(std::string_view body) {
  const std::size_t pos = body.find(kTailKey);
  return pos == std::string_view::npos ? body : body.substr(0, pos);
}

std::string hit_prefix_from_miss(std::string_view miss_prefix) {
  const std::size_t pos = miss_prefix.find(kMissFlag);
  if (pos == std::string_view::npos) return {};
  std::string out(miss_prefix.substr(0, pos));
  out += kHitFlag;
  out += miss_prefix.substr(pos + kMissFlag.size());
  return out;
}

std::string check_hit_bytes(std::string_view body, std::string_view expected) {
  if (expected.empty()) return "no reference bytes for this shape";
  if (body.size() < expected.size() ||
      body.compare(0, expected.size(), expected) != 0 ||
      body.substr(expected.size(), kTailKey.size()) != kTailKey) {
    return "hit bytes differ from the fresh embed's response: " +
           std::string(response_prefix(body)) + " vs " + std::string(expected);
  }
  return "";
}

std::string check_serve_identity(const JsonValue& stats, std::uint64_t client_ok) {
  const auto completed = stats.num("service.completed");
  const auto inline_hits = stats.num("net.inline_hits");
  if (!completed || !inline_hits) return "/stats lacks service.completed or net.inline_hits";
  if (static_cast<std::uint64_t>(*completed + *inline_hits) != client_ok) {
    std::ostringstream os;
    os << "identity ok == service.completed + net.inline_hits broken: ok="
       << client_ok << " completed=" << *completed << " inline_hits=" << *inline_hits;
    return os.str();
  }
  return "";
}

std::string check_router_identity(const JsonValue& stats) {
  const auto sub = stats.num("router.submitted");
  const auto fwd = stats.num("router.forwarded");
  const auto down = stats.num("router.shard_down_rejections");
  const auto over = stats.num("router.overloaded_rejections");
  const auto shut = stats.num("router.shutdown_rejections");
  if (!sub || !fwd || !down || !over || !shut) return "/stats lacks router counters";
  if (*sub != *fwd + *down + *over + *shut) {
    std::ostringstream os;
    os << "identity submitted == forwarded + shard_down + overloaded + shutdown broken: "
       << *sub << " != " << *fwd << " + " << *down << " + " << *over << " + " << *shut;
    return os.str();
  }
  return "";
}

std::string check_session_identity(const JsonValue& stats) {
  const auto applied = stats.num("sessions.ops_applied");
  const auto rep = stats.num("sessions.ops_repaired");
  const auto esc = stats.num("sessions.ops_escalated");
  const auto rej = stats.num("sessions.ops_rejected");
  if (!applied || !rep || !esc || !rej) return "/stats lacks session op counters";
  if (*applied != *rep + *esc + *rej) {
    std::ostringstream os;
    os << "identity ops_applied == repaired + escalated + rejected broken: "
       << *applied << " != " << *rep << " + " << *esc << " + " << *rej;
    return os.str();
  }
  return "";
}

std::string check_bulk_identity(const xt::BulkStats& s) {
  if (s.decoded != s.embedded + s.deduped + s.rejected) {
    std::ostringstream os;
    os << "identity decoded == embedded + deduped + rejected broken: " << s.decoded
       << " != " << s.embedded << " + " << s.deduped << " + " << s.rejected;
    return os.str();
  }
  return "";
}

}  // namespace xtb
