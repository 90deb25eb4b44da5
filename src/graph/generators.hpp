// Shared-memory graph families used across tests and benches.
//
// The paper's fault-tolerance results (§4.2) sweep over GSM topologies: an
// edgeless graph degenerates HBO to pure Ben-Or, the complete graph recovers
// pure shared memory, and random d-regular graphs are the expander family
// recommended by the paper's construction.
//
// A generator asked for a size its family cannot form (a ring of two, a
// chordal ring of odd order, d >= n) throws std::invalid_argument naming it,
// so callers taking sizes from users need not restate the rules.
#pragma once

#include <optional>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace mm::graph {

/// No shared memory at all: HBO on this graph IS Ben-Or.
[[nodiscard]] Graph edgeless(std::size_t n);

/// Every pair shares memory: HBO on this graph has shared-memory fault
/// tolerance (n-1), but degree n-1 does not scale (§3).
[[nodiscard]] Graph complete(std::size_t n);

/// Cycle 0-1-..-(n-1)-0. Degree 2, expansion → 0 as n grows: the canonical
/// low-expansion example.
[[nodiscard]] Graph ring(std::size_t n);

/// Simple path 0-1-..-(n-1).
[[nodiscard]] Graph path(std::size_t n);

/// Star centered at vertex 0. High diameter-2 connectivity but a single
/// point of failure; useful as an adversarial-topology test.
[[nodiscard]] Graph star(std::size_t n);

/// rows × cols torus (wraparound grid); degree 4 when both dims ≥ 3.
[[nodiscard]] Graph torus(std::size_t rows, std::size_t cols);

/// Hypercube on n = 2^dim vertices; degree dim, good expansion.
[[nodiscard]] Graph hypercube(std::size_t dim);

/// Two cliques of size k joined by a single edge ("barbell"): maximal
/// intra-side sharing with a 1-edge cut — the impossibility result's (§4.3)
/// natural worst case.
[[nodiscard]] Graph barbell(std::size_t k);

/// Two cliques of size k joined by a path of `bridge_len` extra vertices.
/// bridge_len ≥ 2 yields sides at graph distance ≥ 3, i.e. an SM-cut.
[[nodiscard]] Graph barbell_path(std::size_t k, std::size_t bridge_len);

/// Ring plus chords to vertices at distance n/2 (a "chordal ring"); degree 3,
/// much better expansion than a plain ring. Requires even n.
[[nodiscard]] Graph chordal_ring(std::size_t n);

/// Random d-regular simple graph via the pairing (configuration) model with
/// rejection of self-loops/multi-edges. Returns nullopt only if the sampler
/// fails repeatedly (practically impossible for n·d within our ranges).
/// Requires n·d even and d < n. Random regular graphs with d ≥ 3 are
/// expanders w.h.p. — the paper's recommended construction.
[[nodiscard]] std::optional<Graph> random_regular(std::size_t n, std::size_t d, Rng& rng);

/// Like random_regular but never returns nullopt: it aborts if the sampler
/// fails (infeasible parameters throw, as in random_regular).
[[nodiscard]] Graph random_regular_must(std::size_t n, std::size_t d, Rng& rng);

/// Explicit expander: the Gabber–Galil construction on Z_m × Z_m (n = m²).
/// Vertex (x, y) connects to (x±2y, y), (x±(2y+1), y), (x, y±2x), and
/// (x, y±(2x+1)), arithmetic mod m; degree ≤ 8 after deduplication. This is
/// the kind of explicit constant-degree expander family the paper's §4.2
/// construction builds on — deterministic, so every run of every experiment
/// sees the same graph.
[[nodiscard]] Graph gabber_galil(std::size_t m);

}  // namespace mm::graph
