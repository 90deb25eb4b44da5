#include "core/ben_or.hpp"

#include <limits>

#include "common/assert.hpp"
#include "core/tags.hpp"
#include "net/broadcast.hpp"

namespace mm::core {

using runtime::Env;
using runtime::Message;

namespace {
constexpr std::uint64_t kDecideRound = std::numeric_limits<std::uint64_t>::max();
}  // namespace

BenOrConsensus::BenOrConsensus(Config config, std::uint32_t initial_value)
    : config_(config), initial_value_(initial_value) {
  MM_ASSERT_MSG(initial_value <= 1, "Ben-Or is binary consensus");
}

bool BenOrConsensus::check_decide(Env& env) {
  if (decision_.load(std::memory_order_acquire) >= 0) return true;
  const Message* m = buffer_.first_matching(kMsgDecide, kDecideRound);
  if (m == nullptr) return false;
  decide(env, static_cast<std::uint32_t>(m->value & 1), m->value >> 1);
  return true;
}

void BenOrConsensus::decide(Env& env, std::uint32_t value, std::uint64_t round) {
  decision_.store(static_cast<int>(value), std::memory_order_release);
  decided_round_.store(round, std::memory_order_release);
  Message m;
  m.kind = kMsgDecide;
  m.round = kDecideRound;
  m.value = (round << 1) | value;
  net::send_to_others(env, m);
}

std::optional<std::vector<std::optional<std::uint32_t>>> BenOrConsensus::await_quorum(
    Env& env, std::uint32_t kind, std::uint64_t round) {
  const std::size_t n = env.n();
  MM_ASSERT_MSG(config_.f < n, "crash bound must be below n");
  const std::size_t quorum = n - config_.f;
  // Reused across passes so the spin loop stays off the heap (see HBO's
  // await_majority).
  std::vector<std::optional<std::uint32_t>> by_sender;
  for (;;) {
    buffer_.pump(env);
    if (check_decide(env)) return std::nullopt;

    by_sender.assign(n, std::nullopt);
    std::size_t senders = 0;
    buffer_.for_each_matching(kind, round, [&](const Message& m) {
      auto& slot = by_sender[m.from.index()];
      if (!slot.has_value()) {
        slot = static_cast<std::uint32_t>(m.value);
        ++senders;
      }
    });
    if (senders >= quorum) return by_sender;

    if (env.stop_requested()) return std::nullopt;
    env.step();
  }
}

void BenOrConsensus::run(Env& env) {
  const std::size_t n = env.n();
  std::uint32_t estimate = initial_value_;

  for (std::uint64_t k = 1; k <= config_.max_rounds; ++k) {
    buffer_.gc_below(k);

    Message r_msg;
    r_msg.kind = kMsgPhaseR;
    r_msg.round = k;
    r_msg.value = estimate;
    net::send_to_all(env, r_msg);

    const auto phase_r = await_quorum(env, kMsgPhaseR, k);
    if (!phase_r.has_value()) return;

    std::size_t count[2] = {0, 0};
    for (const auto& val : *phase_r)
      if (val.has_value() && *val <= 1) ++count[*val];

    std::uint32_t pval = kValQuestion;
    if (2 * count[0] > n) pval = 0;
    if (2 * count[1] > n) pval = 1;

    Message p_msg;
    p_msg.kind = kMsgPhaseP;
    p_msg.round = k;
    p_msg.value = pval;
    net::send_to_all(env, p_msg);

    const auto phase_p = await_quorum(env, kMsgPhaseP, k);
    if (!phase_p.has_value()) return;

    std::size_t pcount[2] = {0, 0};
    bool any_value = false;
    std::uint32_t some_value = 0;
    for (const auto& val : *phase_p) {
      if (val.has_value() && *val <= 1) {
        ++pcount[*val];
        any_value = true;
        some_value = *val;
      }
    }
    // Ben-Or's decision rule: at least f+1 identical non-'?' values.
    for (std::uint32_t b = 0; b <= 1; ++b) {
      if (pcount[b] >= config_.f + 1) {
        decide(env, b, k);
        return;
      }
    }

    if (any_value) {
      estimate = some_value;
    } else {
      estimate = env.coin() ? 1 : 0;
    }
  }
}

}  // namespace mm::core
