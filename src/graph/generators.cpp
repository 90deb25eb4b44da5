#include "graph/generators.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace mm::graph {

namespace {

/// A family's size rule: std::invalid_argument "<family> needs <rule>, got <n>".
void require(bool ok, const char* family, const char* rule, std::size_t got) {
  if (!ok)
    throw std::invalid_argument{std::string{family} + " needs " + rule + ", got " +
                                std::to_string(got)};
}

/// The edges {u, u+1 mod n}, in ring()'s order.
void add_ring_edges(Graph& g, std::size_t n) {
  for (std::size_t u = 0; u < n; ++u)
    g.add_edge(Pid{static_cast<std::uint32_t>(u)},
               Pid{static_cast<std::uint32_t>((u + 1) % n)});
}

}  // namespace

Graph edgeless(std::size_t n) { return Graph{n}; }

Graph complete(std::size_t n) {
  Graph g{n};
  if (n > 0) g.reserve_degree(n - 1);
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t v = u + 1; v < n; ++v)
      g.add_edge(Pid{static_cast<std::uint32_t>(u)}, Pid{static_cast<std::uint32_t>(v)});
  return g;
}

Graph ring(std::size_t n) {
  require(n >= 3, "ring", "n >= 3", n);
  Graph g{n};
  g.reserve_degree(2);
  add_ring_edges(g, n);
  return g;
}

Graph path(std::size_t n) {
  require(n >= 1, "path", "n >= 1", n);
  Graph g{n};
  g.reserve_degree(2);
  for (std::size_t u = 0; u + 1 < n; ++u)
    g.add_edge(Pid{static_cast<std::uint32_t>(u)}, Pid{static_cast<std::uint32_t>(u + 1)});
  return g;
}

Graph star(std::size_t n) {
  require(n >= 2, "star", "n >= 2", n);
  Graph g{n};
  for (std::size_t v = 1; v < n; ++v)
    g.add_edge(Pid{0}, Pid{static_cast<std::uint32_t>(v)});
  return g;
}

Graph torus(std::size_t rows, std::size_t cols) {
  require(rows >= 2 && cols >= 2, "torus", "rows, cols >= 2", std::min(rows, cols));
  Graph g{rows * cols};
  g.reserve_degree(4);
  auto id = [&](std::size_t r, std::size_t c) {
    return Pid{static_cast<std::uint32_t>(r * cols + c)};
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      g.add_edge(id(r, c), id((r + 1) % rows, c));
      g.add_edge(id(r, c), id(r, (c + 1) % cols));
    }
  }
  return g;
}

Graph hypercube(std::size_t dim) {
  require(dim >= 1 && dim <= 12, "hypercube", "1 <= dim <= 12", dim);
  const std::size_t n = 1ULL << dim;
  Graph g{n};
  g.reserve_degree(dim);
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t b = 0; b < dim; ++b) {
      const std::size_t v = u ^ (1ULL << b);
      if (v > u) g.add_edge(Pid{static_cast<std::uint32_t>(u)}, Pid{static_cast<std::uint32_t>(v)});
    }
  return g;
}

Graph barbell(std::size_t k) { return barbell_path(k, 0); }

Graph barbell_path(std::size_t k, std::size_t bridge_len) {
  require(k >= 2, "barbell", "k >= 2", k);
  const std::size_t n = 2 * k + bridge_len;
  Graph g{n};
  g.reserve_degree(k);  // clique vertices k - 1, plus one at each bridge end
  auto pid = [](std::size_t i) { return Pid{static_cast<std::uint32_t>(i)}; };
  // Clique A on [0, k), clique B on [k+bridge_len, n).
  for (std::size_t u = 0; u < k; ++u)
    for (std::size_t v = u + 1; v < k; ++v) g.add_edge(pid(u), pid(v));
  for (std::size_t u = k + bridge_len; u < n; ++u)
    for (std::size_t v = u + 1; v < n; ++v) g.add_edge(pid(u), pid(v));
  // Bridge path: last vertex of A — bridge vertices — first vertex of B.
  std::size_t prev = k - 1;
  for (std::size_t i = 0; i < bridge_len; ++i) {
    g.add_edge(pid(prev), pid(k + i));
    prev = k + i;
  }
  g.add_edge(pid(prev), pid(k + bridge_len));
  return g;
}

Graph chordal_ring(std::size_t n) {
  require(n >= 4 && n % 2 == 0, "chordal_ring", "an even n >= 4", n);
  Graph g{n};
  g.reserve_degree(3);
  add_ring_edges(g, n);
  for (std::size_t u = 0; u < n / 2; ++u)
    g.add_edge(Pid{static_cast<std::uint32_t>(u)},
               Pid{static_cast<std::uint32_t>(u + n / 2)});
  return g;
}

std::optional<Graph> random_regular(std::size_t n, std::size_t d, Rng& rng) {
  require(d < n, "random_regular", "d < n", n);
  require((n * d) % 2 == 0, "random_regular", "an even n*d", n * d);
  if (d == 0) return Graph{n};

  // Start from a d-regular circulant lattice, then randomise with
  // double-edge swaps that preserve degrees and simplicity. Unlike whole-run
  // rejection of the pairing model (whose success probability decays like
  // e^{-(d²-1)/4} and is hopeless for d ≥ 5), this always succeeds, and with
  // Θ(m log m)+ swaps the walk mixes well enough for expander purposes.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  auto add = [&](std::size_t u, std::size_t v) {
    edges.emplace_back(static_cast<std::uint32_t>(u), static_cast<std::uint32_t>(v));
  };
  for (std::size_t k = 1; k <= d / 2; ++k)
    for (std::size_t u = 0; u < n; ++u) add(u, (u + k) % n);
  if (d % 2 == 1) {
    // n is even here (n·d even with d odd); add the antipodal matching.
    for (std::size_t u = 0; u < n / 2; ++u) add(u, u + n / 2);
  }

  // Adjacency set for O(1)-ish simplicity checks during swaps.
  std::vector<std::vector<std::uint32_t>> adj(n);
  auto connected_pair = [&](std::uint32_t a, std::uint32_t b) {
    const auto& nb = adj[a];
    return std::find(nb.begin(), nb.end(), b) != nb.end();
  };
  auto unlink = [&](std::uint32_t a, std::uint32_t b) {
    auto& nb = adj[a];
    nb.erase(std::find(nb.begin(), nb.end(), b));
  };
  for (const auto& [u, v] : edges) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }

  const std::size_t m = edges.size();
  const std::size_t swaps = 30 * m + 100;
  for (std::size_t s = 0; s < swaps; ++s) {
    const std::size_t i = rng.below(m);
    const std::size_t j = rng.below(m);
    if (i == j) continue;
    auto [a, b] = edges[i];
    auto [c, e] = edges[j];
    if (rng.coin()) std::swap(c, e);
    // Propose (a,c) and (b,e) in place of (a,b) and (c,e).
    if (a == c || b == e || a == e || b == c) continue;
    if (connected_pair(a, c) || connected_pair(b, e)) continue;
    unlink(a, b);
    unlink(b, a);
    unlink(c, e);
    unlink(e, c);
    adj[a].push_back(c);
    adj[c].push_back(a);
    adj[b].push_back(e);
    adj[e].push_back(b);
    edges[i] = {a, c};
    edges[j] = {b, e};
  }

  Graph g{n};
  g.reserve_degree(d);
  for (const auto& [u, v] : edges) g.add_edge(Pid{u}, Pid{v});
  return g;
}

Graph random_regular_must(std::size_t n, std::size_t d, Rng& rng) {
  auto g = random_regular(n, d, rng);
  MM_ASSERT_MSG(g.has_value(), "random_regular failed to sample a simple graph");
  return *std::move(g);
}

Graph gabber_galil(std::size_t m) {
  require(m >= 2, "gabber_galil", "m >= 2", m);
  const std::size_t n = m * m;
  Graph g{n};
  g.reserve_degree(8);  // at most eight distinct neighbours each
  auto id = [m](std::size_t x, std::size_t y) {
    return Pid{static_cast<std::uint32_t>(x * m + y)};
  };
  auto mod = [m](std::size_t a, std::size_t b, bool add) {
    return add ? (a + b) % m : (a + m - (b % m)) % m;
  };
  for (std::size_t x = 0; x < m; ++x) {
    for (std::size_t y = 0; y < m; ++y) {
      for (const bool add : {true, false}) {
        const std::size_t x1 = mod(x, 2 * y, add);
        const std::size_t x2 = mod(x, 2 * y + 1, add);
        const std::size_t y1 = mod(y, 2 * x, add);
        const std::size_t y2 = mod(y, 2 * x + 1, add);
        if (id(x1, y) != id(x, y)) g.add_edge(id(x, y), id(x1, y));
        if (id(x2, y) != id(x, y)) g.add_edge(id(x, y), id(x2, y));
        if (id(x, y1) != id(x, y)) g.add_edge(id(x, y), id(x, y1));
        if (id(x, y2) != id(x, y)) g.add_edge(id(x, y), id(x, y2));
      }
    }
  }
  return g;
}

}  // namespace mm::graph
