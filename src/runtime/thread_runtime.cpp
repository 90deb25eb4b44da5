#include "runtime/thread_runtime.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mm::runtime {

// ---------------------------------------------------------------------------
// ThreadEnv
// ---------------------------------------------------------------------------

std::size_t ThreadEnv::n() const { return rt_->config_.n(); }

void ThreadEnv::send(Pid to, Message m) {
  MM_ASSERT(to.index() < rt_->config_.n());
  rt_->counters_.msgs_sent.fetch_add(1, std::memory_order_relaxed);
  rt_->per_proc_[self_.index()]->sends.fetch_add(1, std::memory_order_relaxed);
  if (rt_->byz_ != nullptr && !rt_->byz_->on_byz_send(self_, to, m)) {
    rt_->counters_.msgs_dropped.fetch_add(1, std::memory_order_relaxed);
    return;  // Byzantine selective silence
  }
  if (rt_->config_.link_type == LinkType::kFairLossy &&
      rng_.bernoulli(rt_->config_.drop_prob)) {
    rt_->counters_.msgs_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  m.from = self_;
  {
    ThreadRuntime::Mailbox& box = *rt_->mailboxes_[to.index()];
    const std::scoped_lock lock{box.mutex};
    box.messages.push_back(std::move(m));
  }
  rt_->counters_.msgs_delivered.fetch_add(1, std::memory_order_relaxed);
}

void ThreadEnv::drain_inbox(std::vector<Message>& out) {
  ThreadRuntime::Mailbox& box = *rt_->mailboxes_[self_.index()];
  const std::scoped_lock lock{box.mutex};
  out.clear();
  std::swap(out, box.messages);
}

RegId ThreadEnv::reg(RegKey key) {
  {
    const std::scoped_lock lock{rt_->reg_mutex_};
    auto it = rt_->reg_index_.find(key);
    if (it == rt_->reg_index_.end()) {
      const auto idx = static_cast<std::uint32_t>(rt_->reg_index_.size());
      MM_ASSERT_MSG(idx >> ThreadRuntime::kRegChunkBits < ThreadRuntime::kRegChunks,
                    "ThreadRuntime register table full");
      constexpr std::uint32_t kChunkSlots = 1u << ThreadRuntime::kRegChunkBits;
      auto& chunk = rt_->reg_chunks_[idx >> ThreadRuntime::kRegChunkBits];
      if (!chunk) chunk = std::make_unique<ThreadRuntime::RegSlot[]>(kChunkSlots);
      ThreadRuntime::RegSlot& s = rt_->slot(RegId{idx});
      s.owner = key.owner();
      s.global = key.is_global();
      s.key = key;
      it = rt_->reg_index_.emplace(key, idx).first;
    }
    const RegId r{it->second};
    rt_->check_register_access(self_, r);
    return r;
  }
}

std::uint64_t ThreadEnv::read(RegId r) {
  rt_->check_memory_alive(r);
  rt_->counters_.reg_reads.fetch_add(1, std::memory_order_relaxed);
  auto& pc = *rt_->per_proc_[self_.index()];
  pc.reads.fetch_add(1, std::memory_order_relaxed);
  if (rt_->slot(r).owner == self_) {
    rt_->counters_.reg_reads_local.fetch_add(1, std::memory_order_relaxed);
  } else {
    pc.remote_reads.fetch_add(1, std::memory_order_relaxed);
  }
  return rt_->slot(r).value.load(std::memory_order_seq_cst);
}

void ThreadEnv::write(RegId r, std::uint64_t v) {
  if (rt_->byz_ != nullptr) rt_->byz_->on_byz_reg_write(self_, rt_->slot(r).key, v);
  rt_->check_memory_alive(r);
  rt_->counters_.reg_writes.fetch_add(1, std::memory_order_relaxed);
  auto& pc = *rt_->per_proc_[self_.index()];
  pc.writes.fetch_add(1, std::memory_order_relaxed);
  if (rt_->slot(r).owner == self_) {
    rt_->counters_.reg_writes_local.fetch_add(1, std::memory_order_relaxed);
  } else {
    pc.remote_writes.fetch_add(1, std::memory_order_relaxed);
  }
  rt_->slot(r).value.store(v, std::memory_order_seq_cst);
}

std::uint64_t ThreadEnv::cas(RegId r, std::uint64_t expected, std::uint64_t desired) {
  if (rt_->byz_ != nullptr) rt_->byz_->on_byz_reg_write(self_, rt_->slot(r).key, desired);
  rt_->check_memory_alive(r);
  rt_->counters_.reg_cas_ops.fetch_add(1, std::memory_order_relaxed);
  if (rt_->slot(r).owner == self_)
    rt_->counters_.reg_cas_local.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t e = expected;
  rt_->slot(r).value.compare_exchange_strong(e, desired, std::memory_order_seq_cst);
  return e;  // compare_exchange leaves the observed value in e
}

void ThreadEnv::step() {
  auto& pr = *rt_->procs_[self_.index()];
  if (pr.kill.load(std::memory_order_acquire)) throw ProcessKilled{};
  rt_->per_proc_[self_.index()]->steps.fetch_add(1, std::memory_order_relaxed);
  rt_->clock_.fetch_add(1, std::memory_order_relaxed);
  // Politeness: oversubscribed runs must not burn a full quantum per spin.
  std::this_thread::yield();
}

Step ThreadEnv::now() const { return rt_->clock_.load(std::memory_order_relaxed); }
bool ThreadEnv::stop_requested() const {
  return rt_->stop_.load(std::memory_order_acquire) ||
         rt_->procs_[self_.index()]->kill.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// ThreadRuntime
// ---------------------------------------------------------------------------

ThreadRuntime::ThreadRuntime(Config config) : config_(std::move(config)) {
  if (config_.n() < 1) throw ConfigError{"ThreadRuntime needs at least one process"};
  validate_link(config_.link_type, config_.drop_prob);
  Rng seeder{config_.seed ^ 0x5a5a5a5a5a5a5a5aULL};
  for (std::size_t i = 0; i < config_.n(); ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    memory_failed_.push_back(std::make_unique<std::atomic<bool>>(false));
    per_proc_.push_back(std::make_unique<PerProcCounters>());
    auto proc = std::make_unique<Proc>();
    proc->env =
        std::make_unique<ThreadEnv>(*this, Pid{static_cast<std::uint32_t>(i)}, seeder.split());
    procs_.push_back(std::move(proc));
  }
}

ThreadRuntime::~ThreadRuntime() {
  request_stop();
  for (auto& pr : procs_) pr->kill.store(true, std::memory_order_release);
  // jthread joins on destruction of procs_.
}

void ThreadRuntime::add_process(std::function<void(Env&)> body) {
  MM_ASSERT_MSG(!started_, "cannot add processes after start");
  for (auto& pr : procs_) {
    if (!pr->body) {
      pr->body = std::move(body);
      return;
    }
  }
  MM_ASSERT_MSG(false, "more bodies than config.n()");
}

void ThreadRuntime::start() {
  MM_ASSERT_MSG(!started_, "start called twice");
  for (const auto& pr : procs_) MM_ASSERT_MSG(static_cast<bool>(pr->body), "missing process body");
  started_ = true;
  for (auto& prp : procs_) {
    Proc* pr = prp.get();
    pr->thread = std::jthread([pr] {
      try {
        pr->body(*pr->env);
      } catch (const ProcessKilled&) {
      } catch (...) {
        pr->error = std::current_exception();
      }
      pr->finished.store(true, std::memory_order_release);
    });
  }
}

void ThreadRuntime::join_all() {
  MM_ASSERT_MSG(started_, "join_all before start");
  for (auto& pr : procs_)
    if (pr->thread.joinable()) pr->thread.join();
}

void ThreadRuntime::request_stop() { stop_.store(true, std::memory_order_release); }

void ThreadRuntime::crash(Pid p) {
  MM_ASSERT(p.index() < procs_.size());
  procs_[p.index()]->kill.store(true, std::memory_order_release);
}

bool ThreadRuntime::finished(Pid p) const {
  MM_ASSERT(p.index() < procs_.size());
  return procs_[p.index()]->finished.load(std::memory_order_acquire);
}

void ThreadRuntime::rethrow_process_error() const {
  for (const auto& pr : procs_)
    if (pr->error) std::rethrow_exception(pr->error);
}

void ThreadRuntime::fail_memory(Pid host) {
  MM_ASSERT(host.index() < memory_failed_.size());
  memory_failed_[host.index()]->store(true, std::memory_order_release);
}

void ThreadRuntime::check_memory_alive(RegId r) const {
  const RegSlot& s = slot(r);
  if (!s.global && memory_failed_[s.owner.index()]->load(std::memory_order_acquire)) {
    throw MemoryFailure{"memory hosted at " + to_string(s.owner) + " has failed"};
  }
}

void ThreadRuntime::check_register_access(Pid accessor, RegId r) const {
  // Called with reg_mutex_ held (creation path); slots are immutable apart
  // from their value afterwards.
  const RegSlot& s = slot(r);
  if (s.global || accessor == s.owner) return;
  if (!config_.gsm.has_edge(accessor, s.owner)) {
    throw ModelViolation{to_string(accessor) + " accessed register owned by " +
                         to_string(s.owner) + " outside its shared-memory domain"};
  }
}

Metrics ThreadRuntime::metrics_snapshot() const {
  Metrics m{config_.n()};
  m.msgs_sent = counters_.msgs_sent.load(std::memory_order_relaxed);
  m.msgs_delivered = counters_.msgs_delivered.load(std::memory_order_relaxed);
  m.msgs_dropped = counters_.msgs_dropped.load(std::memory_order_relaxed);
  m.reg_reads = counters_.reg_reads.load(std::memory_order_relaxed);
  m.reg_writes = counters_.reg_writes.load(std::memory_order_relaxed);
  m.reg_cas_ops = counters_.reg_cas_ops.load(std::memory_order_relaxed);
  m.reg_reads_local = counters_.reg_reads_local.load(std::memory_order_relaxed);
  m.reg_writes_local = counters_.reg_writes_local.load(std::memory_order_relaxed);
  m.reg_cas_local = counters_.reg_cas_local.load(std::memory_order_relaxed);
  for (std::size_t p = 0; p < config_.n(); ++p) {
    const auto& pc = *per_proc_[p];
    m.steps_by_proc[p] = pc.steps.load(std::memory_order_relaxed);
    m.sends_by_proc[p] = pc.sends.load(std::memory_order_relaxed);
    m.reads_by_proc[p] = pc.reads.load(std::memory_order_relaxed);
    m.writes_by_proc[p] = pc.writes.load(std::memory_order_relaxed);
    m.remote_reads_by_proc[p] = pc.remote_reads.load(std::memory_order_relaxed);
    m.remote_writes_by_proc[p] = pc.remote_writes.load(std::memory_order_relaxed);
  }
  return m;
}

}  // namespace mm::runtime
