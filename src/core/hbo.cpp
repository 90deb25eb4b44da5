#include "core/hbo.hpp"

#include <limits>

#include "common/assert.hpp"
#include "core/tags.hpp"
#include "net/broadcast.hpp"

namespace mm::core {

using runtime::Env;
using runtime::Message;
using runtime::RegKey;
using runtime::RepTuple;

namespace {
// Low 48 bits of Message.round carry the algorithm round; the high 16 carry
// the instance. The all-ones round marks a DECIDE broadcast of an instance.
constexpr std::uint64_t kRoundMask = (1ULL << 48) - 1;
}  // namespace

HboConsensus::HboConsensus(Config config, std::uint32_t initial_value)
    : config_(config), initial_value_(initial_value) {
  MM_ASSERT_MSG(config_.gsm != nullptr, "HBO requires a shared-memory graph");
  MM_ASSERT_MSG(initial_value <= 1, "HBO is binary consensus");
  MM_ASSERT_MSG(config_.instance < 4096, "instance id space is 12 bits");
  // The k+1 proposal at the final round must still fit the 12-bit space.
  MM_ASSERT_MSG(config_.instance == 0 || config_.max_rounds < 4095,
                "namespaced instances need max_rounds < 4095");
}

std::uint64_t HboConsensus::msg_round(std::uint64_t k) const noexcept {
  return (config_.instance << 48) | (k & kRoundMask);
}

std::uint64_t HboConsensus::decide_round() const noexcept {
  return (config_.instance << 48) | kRoundMask;
}

std::uint64_t HboConsensus::reg_round(std::uint64_t k) const {
  if (config_.instance == 0) {
    MM_ASSERT_MSG(k < (1ULL << 24), "register round space exhausted");
    return k;
  }
  MM_ASSERT(k < 4096);
  return (config_.instance << 12) | k;
}

std::vector<RepTuple> HboConsensus::build_tuples(Env& env, std::uint8_t tag,
                                                 std::uint64_t round, std::uint32_t domain,
                                                 std::uint32_t my_value) {
  const std::vector<Pid> hood = config_.gsm->closed_neighborhood(env.self());
  std::vector<RepTuple> tuples;
  tuples.reserve(hood.size());
  for (Pid q : hood) {
    const shm::ConsensusObject object{RegKey::make(tag, q, reg_round(round)), domain,
                                      config_.impl};
    try {
      tuples.push_back(RepTuple{q, object.propose(env, my_value)});
    } catch (const MemoryFailure&) {
      // §6 partial-memory-failure extension: q's host memory is gone, so q
      // can no longer be represented. Safe to skip — the object decided at
      // most once while alive, so surviving tuples never disagree.
    }
  }
  return tuples;
}

std::vector<RepTuple> HboConsensus::build_tuples_random(Env& env, std::uint64_t round) {
  // Fig. 2's final branch draws a fresh random bit per represented process.
  const std::vector<Pid> hood = config_.gsm->closed_neighborhood(env.self());
  std::vector<RepTuple> tuples;
  tuples.reserve(hood.size());
  for (Pid q : hood) {
    const std::uint32_t v = env.coin() ? 1 : 0;
    const shm::ConsensusObject object{RegKey::make(kTagRVals, q, reg_round(round)),
                                      kBinaryDomain, config_.impl};
    try {
      tuples.push_back(RepTuple{q, object.propose(env, v)});
    } catch (const MemoryFailure&) {
      // See build_tuples.
    }
  }
  return tuples;
}

bool HboConsensus::check_decide(Env& env) {
  if (decision_.load(std::memory_order_acquire) >= 0) return true;
  const Message* m = buffer_.first_matching(kMsgDecide, decide_round());
  if (m == nullptr) return false;
  // DECIDE payload: bit 0 = value, upper bits = round it was decided in.
  decide(env, static_cast<std::uint32_t>(m->value & 1), m->value >> 1);
  return true;
}

void HboConsensus::decide(Env& env, std::uint32_t value, std::uint64_t round) {
  decision_.store(static_cast<int>(value), std::memory_order_release);
  decided_round_.store(round, std::memory_order_release);
  Message m;
  m.kind = kMsgDecide;
  m.round = decide_round();
  m.value = (round << 1) | value;
  net::send_to_others(env, m);
}

std::optional<std::vector<std::optional<std::uint32_t>>> HboConsensus::await_majority(
    Env& env, std::uint32_t kind, std::uint64_t round) {
  const std::size_t n = env.n();
  // Reused across passes: the spin loop below runs once per scheduler step
  // while the majority is missing, and must not touch the heap.
  std::vector<std::optional<std::uint32_t>> rep;
  for (;;) {
    buffer_.pump(env);
    if (check_decide(env)) return std::nullopt;

    rep.assign(n, std::nullopt);
    std::size_t represented = 0;
    buffer_.for_each_matching(kind, msg_round(round), [&](const Message& m) {
      for (const RepTuple& t : m.tuples) {
        MM_ASSERT(t.pid.index() < n);
        auto& slot = rep[t.pid.index()];
        if (!slot.has_value()) {
          slot = t.value;
          ++represented;
        } else {
          // Tuples for the same process come from the same consensus
          // object, so disagreement here is an algorithm bug.
          MM_ASSERT_MSG(*slot == t.value, "inconsistent representation tuple");
        }
      }
    });
    if (2 * represented > n) return rep;

    if (env.stop_requested()) return std::nullopt;
    env.step();
  }
}

void HboConsensus::run(Env& env) {
  const std::size_t n = env.n();
  MM_ASSERT_MSG(config_.gsm->size() == n, "GSM size must match the system size");

  std::uint32_t estimate = initial_value_;
  auto tuples = build_tuples(env, kTagRVals, 1, kBinaryDomain, estimate);

  for (std::uint64_t k = 1; k <= config_.max_rounds; ++k) {
    // Drop completed rounds of this algorithm's own kinds only; foreign
    // traffic (and later instances') stays buffered for take_buffer().
    const std::uint64_t floor = msg_round(k);
    buffer_.erase_matching([floor](const Message& m) {
      return (m.kind == kMsgPhaseR || m.kind == kMsgPhaseP || m.kind == kMsgDecide) &&
             m.round < floor;
    });

    // Phase R: broadcast agreed estimates, await a represented majority.
    Message round_msg;
    round_msg.kind = kMsgPhaseR;
    round_msg.round = msg_round(k);
    round_msg.tuples = tuples;
    net::send_to_all(env, round_msg);

    const auto rep_r = await_majority(env, kMsgPhaseR, k);
    if (!rep_r.has_value()) return;

    std::size_t count[2] = {0, 0};
    for (const auto& val : *rep_r)
      if (val.has_value() && *val <= 1) ++count[*val];

    std::uint32_t pval = kValQuestion;
    if (2 * count[0] > n) pval = 0;
    if (2 * count[1] > n) pval = 1;
    tuples = build_tuples(env, kTagPVals, k, kPhasePDomain, pval);

    // Phase P: broadcast, await a represented majority, decide on a
    // represented majority for a non-'?' value.
    Message phase_msg;
    phase_msg.kind = kMsgPhaseP;
    phase_msg.round = msg_round(k);
    phase_msg.tuples = tuples;
    net::send_to_all(env, phase_msg);

    const auto rep_p = await_majority(env, kMsgPhaseP, k);
    if (!rep_p.has_value()) return;

    std::size_t pcount[2] = {0, 0};
    bool any_value = false;
    std::uint32_t some_value = 0;
    for (const auto& val : *rep_p) {
      if (val.has_value() && *val <= 1) {
        ++pcount[*val];
        any_value = true;
        some_value = *val;
      }
    }
    for (std::uint32_t b = 0; b <= 1; ++b) {
      if (2 * pcount[b] > n) {
        decide(env, b, k);
        return;
      }
    }

    // Next round's estimates: adopt a seen value, else flip coins.
    if (any_value) {
      estimate = some_value;
      tuples = build_tuples(env, kTagRVals, k + 1, kBinaryDomain, estimate);
    } else {
      tuples = build_tuples_random(env, k + 1);
    }
  }
  // Round budget exhausted: return undecided (recorded as non-termination).
}

}  // namespace mm::core
