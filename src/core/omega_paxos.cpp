#include "core/omega_paxos.hpp"

#include "common/assert.hpp"
#include "core/tags.hpp"
#include "net/broadcast.hpp"

namespace mm::core {

using runtime::Env;
using runtime::Message;

namespace {

// Message.round carries the Paxos subkind; Message.value packs the fields:
//   [ballot : 24][accepted ballot : 24][accepted value : 1][value : 1]
enum Subkind : std::uint64_t {
  kPrepare = 1,
  kPromise = 2,
  kAccept = 3,
  kAccepted = 4,
  kDecide = 5,
};

constexpr std::uint64_t kBallotMask = (1ULL << 24) - 1;

/// Own iterations after which a stalled ballot is retried with a higher one.
constexpr std::uint64_t kAttemptTimeout = 256;

std::uint64_t pack(std::uint64_t ballot, std::uint64_t accepted_ballot, std::uint32_t av,
                   std::uint32_t v) {
  MM_ASSERT(ballot <= kBallotMask && accepted_ballot <= kBallotMask);
  return ballot | (accepted_ballot << 24) | (static_cast<std::uint64_t>(av & 1) << 48) |
         (static_cast<std::uint64_t>(v & 1) << 49);
}
std::uint64_t unpack_ballot(std::uint64_t v) { return v & kBallotMask; }
std::uint64_t unpack_accepted_ballot(std::uint64_t v) { return (v >> 24) & kBallotMask; }
std::uint32_t unpack_accepted_value(std::uint64_t v) {
  return static_cast<std::uint32_t>((v >> 48) & 1);
}
std::uint32_t unpack_value(std::uint64_t v) {
  return static_cast<std::uint32_t>((v >> 49) & 1);
}

Message paxos_msg(Subkind subkind, std::uint64_t value) {
  Message m;
  m.kind = kMsgPaxos;
  m.round = subkind;
  m.value = value;
  return m;
}

}  // namespace

OmegaPaxos::OmegaPaxos(std::uint32_t initial_value)
    : initial_value_(initial_value),
      omega_(OmegaMM::Config{.mech = OmegaMM::NotifyMech::kRegister}) {
  MM_ASSERT_MSG(initial_value <= 1, "binary consensus");
}

void OmegaPaxos::decide(Env& env, std::uint32_t value) {
  if (decision_.load(std::memory_order_acquire) >= 0) return;
  decision_.store(static_cast<int>(value), std::memory_order_release);
  net::send_to_others(env, paxos_msg(kDecide, pack(0, 0, 0, value)));
}

void OmegaPaxos::start_ballot(Env& env) {
  const std::uint64_t attempt = ballots_.fetch_add(1, std::memory_order_relaxed) + 1;
  proposer_ = ProposerState{};
  proposer_.active = true;
  proposer_.ballot = attempt * env.n() + env.self().value() + 1;
  proposer_.started_iter = iter_;
  proposer_.promised_from.assign(env.n(), false);
  proposer_.accepted_from.assign(env.n(), false);
  MM_ASSERT_MSG(proposer_.ballot <= kBallotMask, "ballot space exhausted");
  net::send_to_all(env, paxos_msg(kPrepare, pack(proposer_.ballot, 0, 0, 0)));
}

void OmegaPaxos::handle(Env& env, const Message& m) {
  const std::uint64_t ballot = unpack_ballot(m.value);
  const std::size_t majority = env.n() / 2 + 1;
  switch (m.round) {
    case kPrepare:
      if (ballot > acceptor_.promised) {
        acceptor_.promised = ballot;
        env.send(m.from, paxos_msg(kPromise, pack(ballot, acceptor_.accepted_ballot,
                                                  acceptor_.accepted_value, 0)));
      }
      break;
    case kPromise: {
      if (!proposer_.active || proposer_.accept_phase || ballot != proposer_.ballot) break;
      if (proposer_.promised_from[m.from.index()]) break;
      proposer_.promised_from[m.from.index()] = true;
      ++proposer_.promises;
      const std::uint64_t ab = unpack_accepted_ballot(m.value);
      if (ab > proposer_.best_accepted_ballot) {
        proposer_.best_accepted_ballot = ab;
        proposer_.value = unpack_accepted_value(m.value);
      }
      if (proposer_.promises >= majority) {
        proposer_.accept_phase = true;
        if (proposer_.best_accepted_ballot == 0) proposer_.value = initial_value_;
        net::send_to_all(env,
                         paxos_msg(kAccept, pack(proposer_.ballot, 0, 0, proposer_.value)));
      }
      break;
    }
    case kAccept:
      if (ballot >= acceptor_.promised) {
        acceptor_.promised = ballot;
        acceptor_.accepted_ballot = ballot;
        acceptor_.accepted_value = unpack_value(m.value);
        env.send(m.from, paxos_msg(kAccepted, pack(ballot, 0, 0, 0)));
      }
      break;
    case kAccepted:
      if (!proposer_.active || !proposer_.accept_phase || ballot != proposer_.ballot) break;
      if (proposer_.accepted_from[m.from.index()]) break;
      proposer_.accepted_from[m.from.index()] = true;
      ++proposer_.accepts;
      if (proposer_.accepts >= majority) decide(env, proposer_.value);
      break;
    case kDecide:
      decide(env, unpack_value(m.value));
      break;
    default:
      MM_ASSERT_MSG(false, "unknown paxos subkind");
  }
}

void OmegaPaxos::run(Env& env) {
  omega_.begin(env);
  std::vector<Message> foreign;
  while (!env.stop_requested()) {
    ++iter_;
    foreign.clear();
    omega_.iterate(env, &foreign);
    for (const Message& m : foreign) {
      if (m.kind == kMsgPaxos) handle(env, m);
      if (decision_.load(std::memory_order_acquire) >= 0) return;
    }

    const bool am_leader = omega_.leader() == env.self();
    if (am_leader) {
      if (!proposer_.active || iter_ - proposer_.started_iter > kAttemptTimeout) {
        start_ballot(env);  // fresh or stalled: (re)try with a higher ballot
      }
    } else {
      proposer_.active = false;  // lost Ω leadership: stand down
    }
    env.step();
  }
}

}  // namespace mm::core
