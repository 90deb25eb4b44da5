// Receive-side buffering for round-based algorithms.
//
// HBO's receive rule (Fig. 2) is "wait for messages of the form (phase, k, *)
// representing more than n/2 processes". Processes run rounds at different
// speeds, so a receiver must keep messages from future rounds while
// discarding ones from rounds it has already completed. MsgBuffer implements
// exactly that retention policy over Env::drain_inbox().
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/env.hpp"
#include "runtime/message.hpp"

namespace mm::net {

using runtime::Message;

class MsgBuffer {
 public:
  /// Append freshly drained messages.
  void ingest(std::vector<Message> msgs);
  /// Drain env's inbox into the buffer through a reused scratch buffer, so
  /// the steady-state pump does not allocate (the per-step hot path of every
  /// round-based algorithm).
  void pump(runtime::Env& env);

  /// Call fn(const Message&) on every message with this (kind, round), in
  /// arrival order. Allocation-free, so a receive rule can rescan the buffer
  /// on every pass of its spin loop; fn must not ingest/pump/gc.
  template <typename Fn>
  void for_each_matching(std::uint32_t kind, std::uint64_t round, Fn&& fn) const {
    for (const Message& m : msgs_)
      if (m.kind == kind && m.round == round) fn(m);
  }

  /// The earliest-arrived message with this (kind, round), or null.
  /// Invalidated by ingest/pump/gc.
  [[nodiscard]] const Message* first_matching(std::uint32_t kind, std::uint64_t round) const;

  /// Number of buffered messages (all kinds/rounds).
  [[nodiscard]] std::size_t size() const noexcept { return msgs_.size(); }

  /// Discard every message with round < `round` (completed rounds).
  void gc_below(std::uint64_t round);

  /// Discard messages matching pred. Algorithms that share the inbox with
  /// other protocols use this to gc only their own kinds.
  template <typename Pred>
  void erase_matching(Pred&& pred) {
    std::erase_if(msgs_, std::forward<Pred>(pred));
  }

  /// Move every buffered message out (e.g. to hand leftovers to the next
  /// protocol phase after this algorithm finished).
  [[nodiscard]] std::vector<Message> take_all() {
    std::vector<Message> out;
    out.swap(msgs_);
    return out;
  }

 private:
  std::vector<Message> msgs_;
  std::vector<Message> scratch_;  ///< reused drain buffer (see pump)
};

}  // namespace mm::net
