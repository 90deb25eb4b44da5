#include "core/multi_consensus.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/hbo.hpp"
#include "core/tags.hpp"
#include "net/broadcast.hpp"

namespace mm::core {

using runtime::Env;
using runtime::Message;

MultiConsensus::MultiConsensus(Config config, std::uint64_t initial_value)
    : config_(config), initial_value_(initial_value) {
  MM_ASSERT_MSG(config_.gsm != nullptr, "multivalued consensus requires a GSM");
  MM_ASSERT_MSG(config_.bits >= 1 && config_.bits <= 64, "bits in 1..64");
  MM_ASSERT_MSG(config_.bits == 64 || initial_value < (1ULL << config_.bits),
                "value exceeds configured width");
  MM_ASSERT_MSG(config_.instance_base >= 1, "instance 0 is reserved for plain HBO");
  MM_ASSERT_MSG(config_.instance_base + config_.bits <= 4096, "instance space exhausted");
}

void MultiConsensus::seed_buffer(std::vector<Message> msgs) {
  carry_.insert(carry_.end(), std::make_move_iterator(msgs.begin()),
                std::make_move_iterator(msgs.end()));
}

std::vector<Message> MultiConsensus::take_buffer() {
  std::vector<Message> out;
  out.swap(carry_);
  return out;
}

void MultiConsensus::run(Env& env) {
  // Step 1: announce our candidate. The message round carries the instance
  // base so concurrent MultiConsensus instances (RSM slots) stay separable.
  candidates_.insert(initial_value_);
  Message announce;
  announce.kind = kMsgCandidate;
  announce.round = config_.instance_base;
  announce.value = initial_value_;
  net::send_to_all(env, announce);

  auto absorb = [&](std::vector<Message>& msgs) {
    for (auto& m : msgs) {
      if (m.kind == kMsgCandidate && m.round == config_.instance_base) {
        candidates_.insert(m.value);
      } else {
        carry_.push_back(std::move(m));
      }
    }
    msgs.clear();
  };
  std::vector<Message> scratch = take_buffer();  // seeded messages may hold candidates
  absorb(scratch);

  // Step 2: agree bit by bit, most significant first.
  constexpr std::uint64_t kMaxRoundsPerBit = 512;  // a bit past it leaves the value undecided
  std::uint64_t prefix = 0;  // agreed high bits, right-aligned
  for (std::uint32_t i = 0; i < config_.bits; ++i) {
    const std::uint32_t shift = config_.bits - 1 - i;

    // Find a candidate consistent with the agreed prefix; wait for gossip
    // if we do not have one yet (it must exist — see header comment). Pick
    // uniformly among matches: always taking the minimum would bias every
    // run toward the smallest proposal.
    auto matching = [&]() -> std::optional<std::uint64_t> {
      std::vector<std::uint64_t> matches;
      for (const std::uint64_t c : candidates_) {
        // shift+1 == 64 only when the prefix is still empty (i == 0).
        if (shift + 1 >= 64 || (c >> (shift + 1)) == prefix) matches.push_back(c);
      }
      if (matches.empty()) return std::nullopt;
      return matches[env.rand_below(matches.size())];
    };
    std::optional<std::uint64_t> candidate = matching();
    while (!candidate.has_value()) {
      env.drain_inbox(scratch);
      absorb(scratch);
      candidate = matching();
      if (candidate.has_value()) break;
      if (env.stop_requested()) return;
      env.step();
    }

    HboConsensus::Config hc;
    hc.gsm = config_.gsm;
    hc.instance = config_.instance_base + i;
    hc.max_rounds = kMaxRoundsPerBit;
    HboConsensus bit{hc, static_cast<std::uint32_t>((*candidate >> shift) & 1ULL)};
    bit.seed_buffer(take_buffer());
    bit.run(env);
    scratch = bit.take_buffer();
    absorb(scratch);
    if (bit.decision() < 0) return;  // stopped or round budget exhausted
    prefix = (prefix << 1) | static_cast<std::uint64_t>(bit.decision());
  }

  decision_.store(prefix, std::memory_order_release);
}

}  // namespace mm::core
