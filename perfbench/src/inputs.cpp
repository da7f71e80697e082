#include "inputs.hpp"

#include <algorithm>
#include <cmath>

#include "io/newick.hpp"
#include "net/wire.hpp"

namespace xtb {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + tag;
  return xt::splitmix64(state);
}

xt::BinaryTree random_isomorph(const xt::BinaryTree& tree, xt::Rng& rng) {
  const xt::NodeId n = tree.num_nodes();
  std::vector<xt::NodeId> to_new(static_cast<std::size_t>(n), xt::kInvalidNode);
  std::vector<xt::NodeId> stack{tree.root()};
  xt::NodeId next = 0;
  while (!stack.empty()) {
    const xt::NodeId v = stack.back();
    stack.pop_back();
    to_new[static_cast<std::size_t>(v)] = next++;
    xt::NodeId first = tree.left(v);
    xt::NodeId second = tree.right(v);
    if ((rng() & 1u) != 0) std::swap(first, second);
    // Push second first so `first` is visited (and numbered) next.
    if (second != xt::kInvalidNode) stack.push_back(second);
    if (first != xt::kInvalidNode) stack.push_back(first);
  }
  return xt::relabeled_tree(tree, to_new);
}

std::string encode_payload(const xt::BinaryTree& tree, PayloadForm form) {
  switch (form) {
    case PayloadForm::kParen: return tree.to_paren();
    case PayloadForm::kNewick: return xt::to_newick(tree);
    case PayloadForm::kXtb1: return xt::encode_xtb1_record(tree);
  }
  return {};
}

Zipf::Zipf(std::size_t k, double s) {
  cdf_.resize(k);
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::draw(xt::Rng& rng) const {
  const double u = rng.uniform01();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

std::size_t pick_weighted(const std::vector<double>& weights, xt::Rng& rng) {
  double total = 0.0;
  for (const double w : weights) total += w;
  double u = rng.uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (u < weights[i]) return i;
    u -= weights[i];
  }
  return weights.size() - 1;
}

const std::vector<std::string>& random_family_names() {
  static const std::vector<std::string> names{"random", "random_bst",
                                              "random_attach"};
  return names;
}

}  // namespace xtb
