#include "fault/byzantine.hpp"

namespace mm::fault {

void ByzantineAdversary::go_byzantine(Pid p, ByzPolicy policy) {
  if (policy.intensity <= 0.0) policy.intensity = 1.0;  // 0 = "always", like duration
  policies_.insert_or_assign(p.value(), policy);
  if (p.index() < 64) byz_mask_ |= std::uint64_t{1} << p.index();
}

bool ByzantineAdversary::is_byzantine(Pid p) const {
  if (p.index() < 64) return (byz_mask_ >> p.index()) & 1ULL;
  return policies_.contains(p.value());
}

std::uint64_t ByzantineAdversary::draw() {
  ++draws_;
  return rng_();
}

bool ByzantineAdversary::take(double intensity) {
  if (intensity >= 1.0) return true;  // no draw: full intensity is free
  const double u = static_cast<double>(draw() >> 11) * 0x1.0p-53;
  return u < intensity;
}

bool ByzantineAdversary::on_byz_send(Pid from, Pid to, runtime::Message& m) {
  if (policies_.empty()) [[likely]] return true;
  const auto it = policies_.find(from.value());
  if (it == policies_.end()) return true;
  const ByzPolicy& pol = it->second;

  if ((pol.behaviors & kByzSilence) != 0 &&
      to.index() < 64 && ((pol.silence_mask >> to.index()) & 1ULL) != 0)
    return false;  // selective silence — the runtime counts it as a drop

  if ((pol.behaviors & kByzReplay) != 0) {
    // Remember this (pre-corruption) message, then maybe substitute a stale
    // one — a classic old-state replay, impossible to forge beyond the
    // process's own history because the log only holds its own sends.
    if (replay_log_.size() < kReplayLogCap) {
      replay_log_.push_back(m);
    } else {
      replay_log_[replay_next_] = m;
      replay_next_ = (replay_next_ + 1) % kReplayLogCap;
    }
    if (replay_log_.size() > 1 && take(pol.intensity)) {
      const runtime::Message& old =
          replay_log_[static_cast<std::size_t>(draw() % replay_log_.size())];
      m.kind = old.kind;
      m.round = old.round;
      m.value = old.value;
      m.aux = old.aux;
      m.tuples = old.tuples;
    }
  }

  if ((pol.behaviors & kByzEquivocate) != 0) {
    // Deterministic two-faced split: even-index destinations see the honest
    // payload, odd-index destinations see it flipped. No draw — equivocation
    // must differ per destination, not per call.
    m.value ^= static_cast<std::uint64_t>(to.index() & 1U);
  }

  if ((pol.behaviors & kByzCorrupt) != 0 && take(pol.intensity)) {
    m.value = draw();
    m.aux = draw();
  }

  return true;
}

void ByzantineAdversary::on_byz_reg_write(Pid writer, runtime::RegKey /*key*/,
                                          std::uint64_t& v) {
  if (policies_.empty()) [[likely]] return;
  const auto it = policies_.find(writer.value());
  if (it == policies_.end()) return;
  const ByzPolicy& pol = it->second;
  if ((pol.behaviors & kByzCorruptWrites) != 0 && take(pol.intensity)) v = draw();
}

}  // namespace mm::fault
