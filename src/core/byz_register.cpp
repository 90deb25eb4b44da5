#include "core/byz_register.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/tags.hpp"
#include "net/broadcast.hpp"

namespace mm::core {

using runtime::Env;
using runtime::Message;
using runtime::RegKey;

namespace {

// Message.round = (tag << 8) | subkind for the register's own traffic; the
// per-ts Bracha instances use tag (instance_tag << 24) | ts, so their
// traffic (round = (bracha_tag << 8) | phase) routes by round >> 32.
enum Subkind : std::uint64_t {
  kAckW = 1,     ///< aux = ts
  kRead = 2,     ///< aux = rsn
  kState = 3,    ///< aux = (rsn << 32) | ts, value = v
  kConfirm = 4,  ///< aux = (rsn << 32) | ts, value = v
  kAckR = 5,     ///< aux = (rsn << 32) | ts
};

constexpr std::uint32_t kMaxTs = (1u << 24) - 1;

/// Namespace of the run's one register (messages, GSM keys, Bracha tags).
constexpr std::uint64_t kInstanceTag = 1;

std::uint64_t pack_pair(ByzRegister::Pair p) {
  return (static_cast<std::uint64_t>(p.ts) << 32) | (p.v & 0xFFFF'FFFFULL);
}

ByzRegister::Pair unpack_pair(std::uint64_t bits) {
  return {static_cast<std::uint32_t>(bits >> 32), bits & 0xFFFF'FFFFULL};
}

RegKey pair_key(Pid owner) {
  return RegKey::make(kTagByzReg, owner, kInstanceTag, 0);
}

}  // namespace

ByzRegister::ByzRegister(Config config) : config_(config) {
  MM_ASSERT_MSG(!config_.use_gsm || config_.gsm != nullptr,
                "hybrid mode needs the GSM to know whose registers are readable");
}

bool ByzRegister::use_bracha() const noexcept {
  // Hybrid instances keep the Bracha channel only while its own n > 3f
  // precondition holds; past that the writer's register is the sole adoption
  // channel (the trial validates that the writer then neighbors everyone).
  return !config_.use_gsm || config_.gsm == nullptr ||
         config_.gsm->size() > 3 * config_.f;
}

std::uint64_t ByzRegister::bracha_tag(std::uint32_t ts) const noexcept {
  return (kInstanceTag << 24) | ts;
}

BrachaBroadcast& ByzRegister::bracha_for(std::uint32_t ts) {
  auto it = rb_.find(ts);
  if (it == rb_.end()) {
    BrachaBroadcast::Config bc;
    bc.f = config_.f;
    bc.sender = config_.writer;
    bc.tag = bracha_tag(ts);
    it = rb_.emplace(ts, BrachaBroadcast{bc}).first;
  }
  return it->second;
}

void ByzRegister::publish(Env& env) {
  if (!config_.use_gsm) return;
  runtime::write_key(env, pair_key(env.self()), pack_pair(cur_));
}

void ByzRegister::send_state(Env& env, Pid reader, std::uint64_t rsn) {
  Message m;
  m.kind = kMsgByzReg;
  m.round = (kInstanceTag << 8) | kState;
  m.aux = (rsn << 32) | cur_.ts;
  m.value = cur_.v;
  env.send(reader, m);
}

void ByzRegister::adopt(Env& env, Pair p) {
  adopted_log_.emplace(p.ts, p.v);  // first adoption per ts is the logged one
  // Acknowledge every adoption to the writer, stale or not — the writer
  // ignores timestamps it is not currently waiting on.
  Message ack;
  ack.kind = kMsgByzReg;
  ack.round = (kInstanceTag << 8) | kAckW;
  ack.aux = p.ts;
  env.send(config_.writer, ack);

  if (p.ts <= cur_.ts) return;
  cur_ = p;
  publish(env);
  // Open reads get a fresh row: rows at correct servers converge to the max
  // adopted pair, which is what makes the reader's anchor condition live.
  for (const auto& [reader, rsn] : open_reads_) send_state(env, reader, rsn);
  // Confirms waiting for this timestamp can now be acknowledged.
  auto it = pending_confirms_.begin();
  while (it != pending_confirms_.end()) {
    if (it->pair.ts <= cur_.ts) {
      Message m;
      m.kind = kMsgByzReg;
      m.round = (kInstanceTag << 8) | kAckR;
      m.aux = (it->rsn << 32) | it->pair.ts;
      env.send(it->reader, m);
      it = pending_confirms_.erase(it);
    } else {
      ++it;
    }
  }
}

void ByzRegister::poll_gsm(Env& env) {
  if (!config_.use_gsm) return;
  // Trusted adoption channel: the writer's own register. Its publishing code
  // is honest even when the writer is marked Byzantine at the message level;
  // only a register-corrupting adversary (kByzCorruptWrites) breaks this —
  // the collapse edge of the resilience frontier.
  const Pid self = env.self();
  if (self != config_.writer && config_.gsm->has_edge(self, config_.writer)) {
    const std::uint64_t bits = runtime::read_key(env, pair_key(config_.writer));
    if (bits != 0) {
      const Pair p = unpack_pair(bits);
      if (p.ts > cur_.ts) adopt(env, p);
    }
  }
}

void ByzRegister::handle(Env& env, const Message& m) {
  if (m.kind == kMsgBracha) {
    const std::uint64_t btag = m.round >> 8;
    if ((btag >> 24) != kInstanceTag) return;
    if (!use_bracha()) return;
    const auto ts = static_cast<std::uint32_t>(btag & kMaxTs);
    const auto delivered = bracha_for(ts).on_message(env, m);
    if (delivered.has_value()) adopt(env, Pair{ts, *delivered});
    return;
  }
  if (m.kind != kMsgByzReg || (m.round >> 8) != kInstanceTag) return;

  switch (m.round & 0xff) {
    case kAckW:
      if (write_ts_ != 0 && m.aux == write_ts_) wacks_.insert(m.from);
      break;
    case kRead: {
      auto [it, fresh] = open_reads_.try_emplace(m.from, m.aux);
      if (!fresh && m.aux < it->second) break;  // stale/replayed READ
      it->second = m.aux;
      send_state(env, m.from, m.aux);
      break;
    }
    case kState:
      if ((m.aux >> 32) == rsn_ && rsn_ != 0) {
        rows_[m.from] =
            Pair{static_cast<std::uint32_t>(m.aux & 0xFFFF'FFFFULL), m.value};
      }
      break;
    case kConfirm: {
      const Pair p{static_cast<std::uint32_t>(m.aux & 0xFFFF'FFFFULL), m.value};
      if (p.ts <= cur_.ts) {
        Message ack;
        ack.kind = kMsgByzReg;
        ack.round = (kInstanceTag << 8) | kAckR;
        ack.aux = m.aux;
        env.send(m.from, ack);
      } else {
        // Bracha totality (or the writer's register) will deliver p.ts here
        // eventually if any correct process adopted it; ack then.
        pending_confirms_.push_back(PendingConfirm{m.from, m.aux >> 32, p});
      }
      break;
    }
    case kAckR:
      if ((m.aux >> 32) == rsn_ && rsn_ != 0) racks_.insert(m.from);
      break;
    default:
      break;
  }
}

void ByzRegister::pump(Env& env) {
  env.drain_inbox(drain_scratch_);
  for (const Message& m : drain_scratch_) handle(env, m);
  poll_gsm(env);
}

bool ByzRegister::write(Env& env, std::uint64_t v) {
  MM_ASSERT_MSG(env.self() == config_.writer, "single-writer register");
  MM_ASSERT_MSG(v <= 0xFFFF'FFFFULL, "values must fit 32 bits");
  const std::size_t n = env.n();
  if (use_bracha()) {
    MM_ASSERT_MSG(n > 3 * config_.f, "message-mode ByzRegister requires n > 3f");
  } else {
    MM_ASSERT_MSG(n > 2 * config_.f, "hybrid ByzRegister requires n > 2f");
  }
  MM_ASSERT_MSG(ts_ < kMaxTs, "timestamp space exhausted");

  const std::uint32_t ts = ++ts_;
  write_ts_ = ts;
  wacks_.clear();
  wacks_.insert(env.self());
  adopt(env, Pair{ts, v});  // the writer adopts its own pair immediately
  if (use_bracha()) bracha_for(ts).broadcast(env, v);

  const std::size_t need = n - config_.f;
  while (wacks_.size() < need) {
    pump(env);
    if (config_.use_gsm) {
      // Register-channel acknowledgements: a neighbor whose published
      // timestamp reached ts has adopted it — and registers cannot go silent.
      for (const Pid q : config_.gsm->neighbors(env.self())) {
        const std::uint64_t bits = runtime::read_key(env, pair_key(q));
        if (unpack_pair(bits).ts >= ts) wacks_.insert(q);
      }
    }
    if (wacks_.size() >= need) break;
    if (env.stop_requested()) {
      write_ts_ = 0;
      return false;
    }
    env.step();
  }
  write_ts_ = 0;
  return true;
}

std::optional<ByzRegister::Pair> ByzRegister::decide() const {
  const std::size_t f = config_.f;
  std::optional<Pair> best;
  for (const auto& [sender, p] : rows_) {
    std::size_t vouch = 0;
    std::size_t anchored = 0;
    for (const auto& [s2, p2] : rows_) {
      if (p2 == p) ++vouch;
      if (p2.ts <= p.ts) ++anchored;
    }
    if (vouch < f + 1) continue;
    // n − f rows at or below p.ts: any write completed before this read
    // began has n − 2f ≥ f + 1 correct adopters among them, so a stale pair
    // can never anchor (its adopters' rows sit strictly above it).
    if (anchored < anchor_need_) continue;
    if (!best.has_value() || p.ts > best->ts ||
        (p.ts == best->ts && p.v > best->v)) {
      best = p;
    }
  }
  return best;
}

std::optional<std::uint64_t> ByzRegister::read(Env& env) {
  const std::size_t n = env.n();
  anchor_need_ = n - config_.f;
  ++rsn_;
  rows_.clear();
  racks_.clear();

  Message rd;
  rd.kind = kMsgByzReg;
  rd.round = (kInstanceTag << 8) | kRead;
  rd.aux = rsn_;
  net::send_to_all(env, rd);

  // Phase 1: collect rows until a vouched, anchored pair emerges.
  for (;;) {
    pump(env);
    if (config_.use_gsm) {
      // Register rows override message rows: neighbors' published pairs are
      // evidence a message-silencing or -corrupting adversary cannot touch.
      for (const Pid q : config_.gsm->neighbors(env.self())) {
        const std::uint64_t bits = runtime::read_key(env, pair_key(q));
        if (bits != 0) rows_[q] = unpack_pair(bits);
      }
    }
    const auto got = decide();
    if (got.has_value()) {
      confirm_ = *got;
      break;
    }
    if (env.stop_requested()) return std::nullopt;
    env.step();
  }

  // Phase 2: write back. The read returns only once n − f servers hold a
  // pair at least as new, which forbids new-old inversion between reads.
  adopt(env, confirm_);
  Message cf;
  cf.kind = kMsgByzReg;
  cf.round = (kInstanceTag << 8) | kConfirm;
  cf.aux = (rsn_ << 32) | confirm_.ts;
  cf.value = confirm_.v;
  net::send_to_all(env, cf);

  const std::size_t need = n - config_.f;
  racks_.insert(env.self());
  while (racks_.size() < need) {
    pump(env);
    if (config_.use_gsm) {
      for (const Pid q : config_.gsm->neighbors(env.self())) {
        const std::uint64_t bits = runtime::read_key(env, pair_key(q));
        if (unpack_pair(bits).ts >= confirm_.ts) racks_.insert(q);
      }
    }
    if (racks_.size() >= need) break;
    if (env.stop_requested()) return std::nullopt;
    env.step();
  }
  return confirm_.v;
}

}  // namespace mm::core
