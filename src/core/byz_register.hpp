// Signature-free Byzantine-tolerant SWMR atomic register, after
// Mostéfaoui–Petrolia–Raynal–Jard ("Atomic Read/Write Memory in
// Signature-free Byzantine Asynchronous Message-passing Systems", n > 3f),
// layered over the existing Bracha reliable broadcast — plus an m&m hybrid
// mode that uses GSM registers as a second evidence channel the
// message-level adversary cannot touch.
//
// Pure message-passing mode (n > 3f):
//   write(v):  the writer increments its timestamp ts and disseminates
//              (ts, v) with one Bracha broadcast instance per ts. Bracha
//              agreement means no two correct servers ever adopt different
//              values for the same ts, even under an equivocating adversary.
//              Every server ACKs each adoption to the writer; the write
//              completes at n − f ACKs.
//   read():    the reader picks a fresh read sequence number, asks every
//              server for its current (ts, v), and keeps the latest row per
//              server (servers re-send on every adoption, so rows converge).
//              It returns the max-ts pair P that is (a) *vouched* — reported
//              identically by ≥ f + 1 servers, so at least one correct server
//              genuinely adopted it — and (b) *anchored* — ≥ n − f rows have
//              ts ≤ P.ts, so no write that completed before the read began
//              can be newer (quorum intersection: n − 2f ≥ f + 1 of its
//              adopters appear among any n − f rows). Before returning, the
//              reader writes P back (CONFIRM) and waits for n − f servers to
//              have caught up to P.ts, which forbids new-old inversion
//              between non-overlapping reads.
//
// Hybrid m&m mode (use_gsm): every process additionally publishes its
// adopted pair, packed (ts << 32) | v, to its own GSM register. Registers
// give three things messages cannot:
//   * rows from GSM neighbors that a message-silencing adversary cannot
//     suppress (registers are never silent),
//   * write/confirm acknowledgements read straight from neighbors' registers,
//   * a trusted adoption channel from the writer's own register — sound as
//     long as the adversary corrupts only messages, because the publishing
//     *code* of a Byzantine-marked process is honest; only its traffic is.
// On a GSM where the writer neighbors everyone, the message quorums are the
// only constraint left and the construction tolerates any f < n / 2 under a
// message-only adversary — a strict improvement over the n > 3f bound, and
// exactly the resilience-frontier edge bench_e20_byzantine maps. If the
// adversary can also corrupt register writes (kByzCorruptWrites on the
// writer), the trusted channel collapses and safety breaks at b = 1: the
// other edge of the frontier.
//
// Values must fit 32 bits (they pack beside the timestamp); timestamps must
// stay below 2^24 (they pack into Bracha tags). Both bounds are asserted.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/bracha.hpp"
#include "graph/graph.hpp"
#include "runtime/env.hpp"

namespace mm::core {

class ByzRegister {
 public:
  struct Config {
    std::size_t f = 0;      ///< Byzantine bound; n > 3f (message) / n > 2f (hybrid)
    Pid writer{0};          ///< the single writer
    bool use_gsm = false;   ///< hybrid m&m mode (publish/read GSM registers)
    /// Required when use_gsm: the GSM, to know whose registers are readable.
    const graph::Graph* gsm = nullptr;
  };

  /// The (timestamp, value) pair a server currently holds. ts 0 = initial.
  struct Pair {
    std::uint32_t ts = 0;
    std::uint64_t v = 0;
    friend bool operator==(const Pair&, const Pair&) = default;
  };

  explicit ByzRegister(Config config);

  /// Writer only: atomically write `v` (< 2^32). Blocks (polling the inbox
  /// and stepping) until n − f servers acknowledged; false = stopped first.
  bool write(runtime::Env& env, std::uint64_t v);

  /// Any process: atomic read. Blocks until a vouched, anchored pair is
  /// found and written back; nullopt = stopped first.
  std::optional<std::uint64_t> read(runtime::Env& env);

  /// Serve one scheduling slice: drain the inbox, feed Bracha instances,
  /// answer reads/confirms, poll the hybrid register channel. Processes call
  /// this in their idle loop; write()/read() call it internally.
  void pump(runtime::Env& env);

  [[nodiscard]] const Pair& current() const noexcept { return cur_; }
  /// Every (ts → v) this process ever adopted — the agreement-among-correct
  /// oracle compares these across correct processes post-run.
  [[nodiscard]] const std::map<std::uint32_t, std::uint64_t>& adopted_log() const noexcept {
    return adopted_log_;
  }

 private:
  struct PendingConfirm {
    Pid reader;
    std::uint64_t rsn = 0;
    Pair pair;
  };

  [[nodiscard]] bool use_bracha() const noexcept;
  [[nodiscard]] std::uint64_t bracha_tag(std::uint32_t ts) const noexcept;
  BrachaBroadcast& bracha_for(std::uint32_t ts);
  void handle(runtime::Env& env, const runtime::Message& m);
  void adopt(runtime::Env& env, Pair p);
  void publish(runtime::Env& env);
  void poll_gsm(runtime::Env& env);
  void send_state(runtime::Env& env, Pid reader, std::uint64_t rsn);
  [[nodiscard]] std::optional<Pair> decide() const;

  Config config_;
  Pair cur_;
  std::map<std::uint32_t, std::uint64_t> adopted_log_;

  // Writer state.
  std::uint32_t ts_ = 0;            ///< last issued timestamp
  std::uint32_t write_ts_ = 0;      ///< timestamp of the in-flight write
  std::set<Pid> wacks_;

  // Server state.
  std::map<std::uint32_t, BrachaBroadcast> rb_;   ///< one instance per ts
  std::map<Pid, std::uint64_t> open_reads_;       ///< reader → its latest rsn
  std::vector<PendingConfirm> pending_confirms_;

  // Reader state.
  std::uint64_t rsn_ = 0;
  std::map<Pid, Pair> rows_;        ///< latest reported pair per server
  std::set<Pid> racks_;
  Pair confirm_;                    ///< pair being written back
  std::size_t anchor_need_ = 0;     ///< n − f, latched when a read starts

  std::vector<runtime::Message> drain_scratch_;
};

}  // namespace mm::core
