// Seeded input generation.  Every tree the benchmark sends comes from
// xt::make_family_tree, is turned into a random isomorph (children
// swapped at random, nodes renumbered in the new preorder) and encoded
// as paren, Newick or an xtb1 record.  The program under test receives
// only these bytes; the same seed always produces the same bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "btree/binary_tree.hpp"
#include "service/request.hpp"
#include "util/rng.hpp"

namespace xtb {

enum class PayloadForm : std::uint8_t { kParen = 0, kNewick = 1, kXtb1 = 2 };

/// Mixes a workload seed with a stream tag so that each connection or
/// phase draws from an independent, reproducible stream.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag);

/// A random isomorph of `tree`: each node's children are swapped with
/// probability 1/2 and ids are reassigned in the resulting preorder.
[[nodiscard]] xt::BinaryTree random_isomorph(const xt::BinaryTree& tree,
                                             xt::Rng& rng);

/// Request payload bytes of `tree` in the given form (the xtn1 format
/// byte equals the PayloadForm value).
[[nodiscard]] std::string encode_payload(const xt::BinaryTree& tree,
                                         PayloadForm form);

/// Zipf(s) popularity over k ranks: draw() returns a rank in [0, k),
/// rank 0 most popular.
class Zipf {
 public:
  Zipf(std::size_t k, double s);
  [[nodiscard]] std::size_t draw(xt::Rng& rng) const;
  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Picks index i with probability weights[i] / sum(weights).
[[nodiscard]] std::size_t pick_weighted(const std::vector<double>& weights,
                                        xt::Rng& rng);

/// Exact-form guest size n = 16 * (2^{r+1} - 1) for X-tree height r.
[[nodiscard]] constexpr xt::NodeId exact_size(int r) {
  return 16 * ((1 << (r + 1)) - 1);
}

/// Families whose make_family_tree output depends on the rng (every
/// draw is a new shape).
[[nodiscard]] const std::vector<std::string>& random_family_names();

}  // namespace xtb
