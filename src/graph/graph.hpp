// Undirected shared-memory graphs (the paper's GSM, §3).
//
// GSM = (Π, ESM). The shared-memory domain S is uniform: registers owned by
// process p are shared exactly with Sp = {p} ∪ neighbors(p). This module is
// a plain graph library; the access-control semantics live in mm::shm.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/ids.hpp"

namespace mm::graph {

/// Simple undirected graph on vertices {0..n-1}. No self-loops, no parallel
/// edges. Keeps both adjacency lists (iteration) and 64-bit adjacency masks
/// (set algebra for expansion / SM-cut computations, which constrains exact
/// algorithms to n ≤ 64 — far beyond their tractable range anyway).
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return adj_.size(); }
  [[nodiscard]] bool empty() const noexcept { return adj_.empty(); }

  /// Adds the undirected edge {u, v}. Idempotent; rejects self-loops.
  void add_edge(Pid u, Pid v);
  /// Room for `degree` neighbours at every vertex: a generator that knows
  /// the final (or maximum) degree calls it first, so building the graph
  /// allocates each adjacency list once.
  void reserve_degree(std::size_t degree);
  [[nodiscard]] bool has_edge(Pid u, Pid v) const;

  [[nodiscard]] const std::vector<Pid>& neighbors(Pid u) const {
    MM_ASSERT(u.index() < size());
    return adj_[u.index()];
  }
  [[nodiscard]] std::size_t degree(Pid u) const { return neighbors(u).size(); }
  [[nodiscard]] std::size_t max_degree() const noexcept;
  [[nodiscard]] std::size_t min_degree() const noexcept;
  [[nodiscard]] std::size_t edge_count() const noexcept;

  /// The paper's Sp = {p} ∪ neighbors(p): the set of processes that can
  /// access registers hosted at p (Figure 1).
  [[nodiscard]] std::vector<Pid> closed_neighborhood(Pid p) const;

  /// Adjacency as a bitmask (valid while n ≤ 64).
  [[nodiscard]] std::uint64_t neighbor_mask(Pid u) const {
    MM_ASSERT(u.index() < size());
    MM_ASSERT_MSG(size() <= 64, "mask form requires n <= 64");
    return masks_[u.index()];
  }

  /// Vertex boundary δS (Definition 1.1): neighbors of S outside S.
  /// Mask-based; requires n ≤ 64.
  [[nodiscard]] std::uint64_t boundary_mask(std::uint64_t s) const;
  [[nodiscard]] std::size_t boundary_size(std::uint64_t s) const;

  [[nodiscard]] bool connected() const;
  /// BFS hop distances from src (SIZE_MAX for unreachable vertices).
  [[nodiscard]] std::vector<std::size_t> bfs_distances(Pid src) const;

  /// Human-readable one-line summary, e.g. "n=16 m=32 deg=[4,4]".
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<std::vector<Pid>> adj_;
  std::vector<std::uint64_t> masks_;
};

/// All-ones mask for the first n vertices.
[[nodiscard]] constexpr std::uint64_t full_mask(std::size_t n) noexcept {
  return n >= 64 ? ~0ULL : ((1ULL << n) - 1);
}

}  // namespace mm::graph
