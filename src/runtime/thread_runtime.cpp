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
  m.from = self_;
  ThreadRuntime::Mailbox& box = *rt_->mailboxes_[to.index()];
  const std::scoped_lock lock{box.mutex};
  box.messages.push_back(std::move(m));
}

void ThreadEnv::drain_inbox(std::vector<Message>& out) {
  ThreadRuntime::Mailbox& box = *rt_->mailboxes_[self_.index()];
  const std::scoped_lock lock{box.mutex};
  out.clear();
  std::swap(out, box.messages);
}

RegId ThreadEnv::reg(RegKey key) {
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
    it = rt_->reg_index_.emplace(key, idx).first;
  }
  const RegId r{it->second};
  rt_->check_register_access(self_, r);
  return r;
}

std::uint64_t ThreadEnv::read(RegId r) {
  return rt_->slot(r).value.load(std::memory_order_seq_cst);
}

void ThreadEnv::write(RegId r, std::uint64_t v) {
  rt_->slot(r).value.store(v, std::memory_order_seq_cst);
}

std::uint64_t ThreadEnv::cas(RegId r, std::uint64_t expected, std::uint64_t desired) {
  std::uint64_t e = expected;
  rt_->slot(r).value.compare_exchange_strong(e, desired, std::memory_order_seq_cst);
  return e;  // compare_exchange leaves the observed value in e
}

void ThreadEnv::step() {
  auto& pr = *rt_->procs_[self_.index()];
  if (pr.kill.load(std::memory_order_acquire)) throw ProcessKilled{};
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
  Rng seeder{config_.seed ^ 0x5a5a5a5a5a5a5a5aULL};
  for (std::size_t i = 0; i < config_.n(); ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
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

}  // namespace mm::runtime
