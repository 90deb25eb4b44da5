#include "graph/graph.hpp"

#include <algorithm>
#include <bit>
#include <queue>

namespace mm::graph {

Graph::Graph(std::size_t n) : adj_(n), masks_(n, 0) {
  // Typo guard, not a correctness bound: the mask-based algorithms gate on
  // n <= 64 themselves. 2^20 admits the million-process scalability run
  // (bench_e8_scalability Part C) while still catching garbage sizes.
  MM_ASSERT_MSG(n <= (1u << 20), "graph size sanity bound");
}

void Graph::add_edge(Pid u, Pid v) {
  MM_ASSERT(u.index() < size() && v.index() < size());
  MM_ASSERT_MSG(u != v, "self-loops are not part of GSM");
  if (has_edge(u, v)) return;
  adj_[u.index()].push_back(v);
  adj_[v.index()].push_back(u);
  if (size() <= 64) {
    masks_[u.index()] |= 1ULL << v.index();
    masks_[v.index()] |= 1ULL << u.index();
  }
}

void Graph::reserve_degree(std::size_t degree) {
  for (auto& nb : adj_) nb.reserve(degree);
}

bool Graph::has_edge(Pid u, Pid v) const {
  MM_ASSERT(u.index() < size() && v.index() < size());
  if (size() <= 64) return (masks_[u.index()] >> v.index()) & 1ULL;
  const auto& nb = adj_[u.index()];
  return std::find(nb.begin(), nb.end(), v) != nb.end();
}

std::size_t Graph::max_degree() const noexcept {
  std::size_t d = 0;
  for (const auto& nb : adj_) d = std::max(d, nb.size());
  return d;
}

std::size_t Graph::min_degree() const noexcept {
  if (adj_.empty()) return 0;
  std::size_t d = adj_.front().size();
  for (const auto& nb : adj_) d = std::min(d, nb.size());
  return d;
}

std::size_t Graph::edge_count() const noexcept {
  std::size_t twice = 0;
  for (const auto& nb : adj_) twice += nb.size();
  return twice / 2;
}

std::vector<Pid> Graph::closed_neighborhood(Pid p) const {
  std::vector<Pid> s = neighbors(p);
  s.push_back(p);
  std::sort(s.begin(), s.end());
  return s;
}

std::uint64_t Graph::boundary_mask(std::uint64_t s) const {
  MM_ASSERT_MSG(size() <= 64, "mask form requires n <= 64");
  std::uint64_t nb = 0;
  std::uint64_t rest = s;
  while (rest != 0) {
    const auto v = static_cast<std::size_t>(std::countr_zero(rest));
    rest &= rest - 1;
    nb |= masks_[v];
  }
  return nb & ~s;
}

std::size_t Graph::boundary_size(std::uint64_t s) const {
  return static_cast<std::size_t>(std::popcount(boundary_mask(s)));
}

bool Graph::connected() const {
  if (empty()) return true;
  const auto dist = bfs_distances(Pid{0});
  return std::none_of(dist.begin(), dist.end(),
                      [](std::size_t d) { return d == SIZE_MAX; });
}

std::vector<std::size_t> Graph::bfs_distances(Pid src) const {
  MM_ASSERT(src.index() < size());
  std::vector<std::size_t> dist(size(), SIZE_MAX);
  std::queue<Pid> q;
  dist[src.index()] = 0;
  q.push(src);
  while (!q.empty()) {
    const Pid u = q.front();
    q.pop();
    for (Pid v : neighbors(u)) {
      if (dist[v.index()] == SIZE_MAX) {
        dist[v.index()] = dist[u.index()] + 1;
        q.push(v);
      }
    }
  }
  return dist;
}

std::string Graph::summary() const {
  return "n=" + std::to_string(size()) + " m=" + std::to_string(edge_count()) +
         " deg=[" + std::to_string(min_degree()) + "," + std::to_string(max_degree()) + "]";
}

}  // namespace mm::graph
