#include "core/paxos_log.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/tags.hpp"
#include "net/broadcast.hpp"
#include "core/rsm.hpp"  // kNoopCommand

namespace mm::core {

using runtime::Env;
using runtime::Message;

namespace {

// Message.round = (slot << 8) | subkind. Ballots stay well below 2^24, so a
// promise entry packs (ballot, accepted ballot) into Message.value.
enum Subkind : std::uint64_t {
  kPrepare = 1,       // value = ballot
  kPromiseHdr = 2,    // value = ballot, aux = number of entry messages
  kPromiseEntry = 3,  // value = ballot | accepted_ballot << 24, aux = command
  kAccept = 4,        // value = ballot, aux = command
  kAccepted = 5,      // value = ballot
  kCommit = 6,        // aux = command
  kForward = 7,       // aux = command
};

constexpr std::uint64_t kBallotMask = (1ULL << 24) - 1;
constexpr std::uint64_t kAttemptTimeout = 512;  ///< own iterations before a re-prepare
constexpr std::uint64_t kForwardEvery = 64;     ///< command re-forward period (iterations)

Message make(Subkind subkind, std::uint64_t slot, std::uint64_t value, std::uint64_t aux) {
  Message m;
  m.kind = kMsgPaxosLog;
  m.round = (slot << 8) | subkind;
  m.value = value;
  m.aux = aux;
  return m;
}

}  // namespace

PaxosLog::PaxosLog(std::vector<std::uint64_t> my_commands)
    : omega_(OmegaMM::Config{.mech = OmegaMM::NotifyMech::kRegister}) {
  for (const std::uint64_t cmd : my_commands) {
    MM_ASSERT_MSG(cmd != kNoopCommand, "command 0 is reserved for no-op gap filling");
    pending_.push_back(cmd);
    mine_.insert(cmd);
  }
  if (mine_.empty()) mine_committed_.store(true, std::memory_order_release);
}

void PaxosLog::start_prepare(Env& env) {
  ++ballot_counter_;
  ballot_ = ballot_counter_ * env.n() + env.self().value() + 1;
  MM_ASSERT_MSG(ballot_ <= kBallotMask, "ballot space exhausted");
  accept_phase_ = false;
  phase_started_ = iter_;
  promises_.assign(env.n(), PromiseInfo{});
  full_promises_ = 0;
  inherited_.clear();
  in_flight_.clear();
  net::send_to_all(env, make(kPrepare, 0, ballot_, 0));
}

void PaxosLog::begin_accept_phase(Env& env) {
  accept_phase_ = true;
  phase_started_ = iter_;
  // First free slot: beyond everything chosen or inherited.
  next_slot_ = 0;
  for (const auto& [slot, cmd] : chosen_) next_slot_ = std::max(next_slot_, slot + 1);
  for (const auto& [slot, acc] : inherited_) next_slot_ = std::max(next_slot_, slot + 1);
  // Re-propose inherited values; fill uncovered gaps with no-ops so the
  // applied prefix can always advance.
  for (std::uint64_t slot = 0; slot < next_slot_; ++slot) {
    if (chosen_.count(slot) != 0) continue;
    const auto it = inherited_.find(slot);
    propose_slot(env, slot, it != inherited_.end() ? it->second.command : kNoopCommand);
  }
}

void PaxosLog::propose_slot(Env& env, std::uint64_t slot, std::uint64_t command) {
  in_flight_[slot] = {command, {}};
  net::send_to_all(env, make(kAccept, slot, ballot_, command));
}

void PaxosLog::commit_slot(Env& env, std::uint64_t slot, std::uint64_t command) {
  if (chosen_.emplace(slot, command).second) {
    net::send_to_others(env, make(kCommit, slot, 0, command));
    apply_ready(env);
  }
  in_flight_.erase(slot);
  phase_started_ = iter_;  // progress: reset the stall clock
}

void PaxosLog::apply_ready(Env& env) {
  (void)env;
  while (true) {
    const auto it = chosen_.find(applied_.size());
    if (it == chosen_.end()) break;
    applied_.push_back(it->second);
    applied_count_.store(applied_.size(), std::memory_order_release);
  }
  // Did everything we ever submitted make it in?
  if (!mine_committed_.load(std::memory_order_acquire)) {
    std::size_t found = 0;
    for (const std::uint64_t cmd : applied_)
      if (mine_.count(cmd) != 0) ++found;
    if (found >= mine_.size()) mine_committed_.store(true, std::memory_order_release);
  }
}

void PaxosLog::handle(Env& env, const Message& m) {
  const auto subkind = static_cast<Subkind>(m.round & 0xff);
  const std::uint64_t slot = m.round >> 8;
  const std::size_t majority = env.n() / 2 + 1;

  switch (subkind) {
    case kPrepare: {
      const std::uint64_t b = m.value;
      if (b > promised_) {
        promised_ = b;
        env.send(m.from, make(kPromiseHdr, 0, b, accepted_.size()));
        for (const auto& [s, acc] : accepted_) {
          env.send(m.from,
                   make(kPromiseEntry, s, b | (acc.ballot << 24), acc.command));
        }
      }
      break;
    }
    case kPromiseHdr:
    case kPromiseEntry: {
      const std::uint64_t b = m.value & kBallotMask;
      if (!leading_ || accept_phase_ || b != ballot_) break;
      PromiseInfo& info = promises_[m.from.index()];
      if (subkind == kPromiseHdr) {
        info.header = true;
        info.expected_entries = m.aux;
      } else {
        ++info.received_entries;
        const std::uint64_t abal = m.value >> 24;
        auto& slot_best = inherited_[slot];
        if (abal > slot_best.ballot) slot_best = Accepted{abal, m.aux};
      }
      if (info.header && info.received_entries >= info.expected_entries && !info.counted) {
        info.counted = true;
        if (++full_promises_ >= majority) begin_accept_phase(env);
      }
      break;
    }
    case kAccept: {
      const std::uint64_t b = m.value;
      if (b >= promised_) {
        promised_ = b;
        accepted_[slot] = Accepted{b, m.aux};
        env.send(m.from, make(kAccepted, slot, b, 0));
      }
      break;
    }
    case kAccepted: {
      if (!leading_ || !accept_phase_ || m.value != ballot_) break;
      const auto it = in_flight_.find(slot);
      if (it == in_flight_.end()) break;
      it->second.second.insert(m.from);
      if (it->second.second.size() >= majority) commit_slot(env, slot, it->second.first);
      break;
    }
    case kCommit:
      if (chosen_.emplace(slot, m.aux).second) apply_ready(env);
      break;
    case kForward:
      if (leading_ && accept_phase_) {
        // Re-forwarded commands may already be in the log or in flight.
        bool known = false;
        for (const auto& [s, cmd] : chosen_) known = known || cmd == m.aux;
        for (const auto& [s, fl] : in_flight_) known = known || fl.first == m.aux;
        if (!known) propose_slot(env, next_slot_++, m.aux);
      }
      break;
    default:
      break;
  }
}

void PaxosLog::pump_client(Env& env) {
  // Drop commands that have committed.
  while (!pending_.empty()) {
    const std::uint64_t head = pending_.front();
    const bool committed =
        std::find(applied_.begin(), applied_.end(), head) != applied_.end() ||
        std::any_of(chosen_.begin(), chosen_.end(),
                    [head](const auto& kv) { return kv.second == head; });
    if (!committed) break;
    pending_.pop_front();
  }
  if (pending_.empty()) return;

  if (leading_ && accept_phase_) {
    // Assign all pending commands directly, skipping ones already in flight
    // OR already chosen (pending_ only pops from the head, so a committed
    // non-head command would otherwise be re-proposed into a second slot).
    for (const std::uint64_t cmd : pending_) {
      bool known = false;
      for (const auto& [s, fl] : in_flight_) known = known || fl.first == cmd;
      for (const auto& [s, chosen_cmd] : chosen_) known = known || chosen_cmd == cmd;
      if (!known) propose_slot(env, next_slot_++, cmd);
    }
  } else if (iter_ % kForwardEvery == 0) {
    const Pid leader = omega_.leader();
    if (!leader.is_none() && leader != env.self() && leader.index() < env.n()) {
      for (const std::uint64_t cmd : pending_)
        env.send(leader, make(kForward, 0, 0, cmd));
    }
  }
}

void PaxosLog::run(Env& env) {
  omega_.begin(env);
  std::vector<Message> foreign;
  while (!env.stop_requested()) {
    ++iter_;
    foreign.clear();
    omega_.iterate(env, &foreign);
    for (const Message& m : foreign)
      if (m.kind == kMsgPaxosLog) handle(env, m);

    const bool am_leader = omega_.leader() == env.self();
    if (am_leader && !leading_) {
      leading_ = true;
      start_prepare(env);
    } else if (!am_leader && leading_) {
      leading_ = false;
      accept_phase_ = false;
      in_flight_.clear();
    } else if (leading_ && iter_ - phase_started_ > kAttemptTimeout &&
               (!accept_phase_ || !in_flight_.empty() || !pending_.empty())) {
      start_prepare(env);  // stalled ballot (lost quorum or dropped replies)
    }
    pump_client(env);
    env.step();
  }
}

}  // namespace mm::core
