// Multivalued consensus from binary HBO — an extension in the direction the
// paper's conclusion points ("developing better algorithms, studying other
// problems").
//
// Construction (folklore bit-by-bit reduction, crash-fault version):
//   1. Every process broadcasts its full proposed value once (a CANDIDATE
//      message) and collects candidates from others.
//   2. Bits are agreed most-significant-first, one binary HBO instance per
//      bit. In round i a process proposes bit i of some candidate whose bits
//      0..i-1 match the already-agreed prefix; if it holds no such candidate
//      it waits (one must arrive: by binary Validity the agreed bit i was
//      proposed from a real candidate with the agreed prefix, and that
//      candidate was broadcast over reliable links).
//   3. After all bits, the agreed bit-string equals a real proposal: the
//      process whose proposal fixed the last bit held a full candidate
//      matching every agreed bit.
//
// Properties (inherited per bit + the argument above): Uniform Agreement,
// Validity (the decision is some process' proposal), Termination w.p. 1 with
// the same fault tolerance as HBO on the same GSM.
//
// Cost: `bits` sequential binary instances. The RSM layer (rsm.hpp) runs one
// MultiConsensus per log slot.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/env.hpp"

namespace mm::core {

class MultiConsensus {
 public:
  struct Config {
    const graph::Graph* gsm = nullptr;
    std::uint32_t bits = 16;           ///< value width; values must fit
    std::uint64_t instance_base = 1;   ///< first HBO instance id to use; this
                                       ///< object consumes [base, base+bits)
  };

  MultiConsensus(Config config, std::uint64_t initial_value);

  void run(runtime::Env& env);

  /// Decided value; nullopt while undecided.
  [[nodiscard]] std::optional<std::uint64_t> decision() const {
    const std::uint64_t d = decision_.load(std::memory_order_acquire);
    if (d == kUndecided) return std::nullopt;
    return d;
  }
  [[nodiscard]] std::uint64_t initial_value() const noexcept { return initial_value_; }

  /// Inbox multiplexing support (same contract as HboConsensus).
  void seed_buffer(std::vector<runtime::Message> msgs);
  [[nodiscard]] std::vector<runtime::Message> take_buffer();

 private:
  static constexpr std::uint64_t kUndecided = ~0ULL;

  Config config_;
  std::uint64_t initial_value_;
  std::vector<runtime::Message> carry_;  ///< messages threaded between instances
  std::set<std::uint64_t> candidates_;
  std::atomic<std::uint64_t> decision_{kUndecided};
};

}  // namespace mm::core
