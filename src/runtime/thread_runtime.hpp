// Free-running multithreaded runtime: one std::jthread per process, real
// atomics for registers, mutexed mailboxes for links. The same algorithm
// objects that run under SimRuntime run here unchanged — used by benches to
// confirm results are not artifacts of cooperative scheduling, and by the
// examples that want wall-clock behaviour.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "runtime/env.hpp"
#include "runtime/fault_hook.hpp"
#include "runtime/metrics.hpp"
#include "runtime/sim_config.hpp"

namespace mm::runtime {

class ThreadRuntime;

class ThreadEnv final : public Env {
 public:
  ThreadEnv(ThreadRuntime& rt, Pid self, Rng rng) : rt_(&rt), self_(self), rng_(rng) {}

  [[nodiscard]] Pid self() const override { return self_; }
  [[nodiscard]] std::size_t n() const override;
  void send(Pid to, Message m) override;
  void drain_inbox(std::vector<Message>& out) override;
  [[nodiscard]] RegId reg(RegKey key) override;
  [[nodiscard]] std::uint64_t read(RegId r) override;
  void write(RegId r, std::uint64_t v) override;
  std::uint64_t cas(RegId r, std::uint64_t expected, std::uint64_t desired) override;
  [[nodiscard]] bool coin() override { return rng_.coin(); }
  [[nodiscard]] std::uint64_t rand_below(std::uint64_t bound) override {
    return rng_.below(bound);
  }
  void step() override;
  [[nodiscard]] Step now() const override;
  [[nodiscard]] bool stop_requested() const override;

 private:
  friend class ThreadRuntime;
  ThreadRuntime* rt_;
  Pid self_;
  Rng rng_;
};

class ThreadRuntime {
 public:
  struct Config {
    graph::Graph gsm;
    std::uint64_t seed = 1;
    LinkType link_type = LinkType::kReliable;
    double drop_prob = 0.0;

    [[nodiscard]] std::size_t n() const noexcept { return gsm.size(); }
  };

  explicit ThreadRuntime(Config config);
  ~ThreadRuntime();
  ThreadRuntime(const ThreadRuntime&) = delete;
  ThreadRuntime& operator=(const ThreadRuntime&) = delete;

  void add_process(std::function<void(Env&)> body);
  /// Launch every process thread. Processes run concurrently until their
  /// body returns, they are crashed, or the runtime is stopped.
  void start();
  /// Block until every process body has returned.
  void join_all();
  /// Cooperative global stop: Env::stop_requested() turns true everywhere.
  void request_stop();
  /// Simulated crash: p's next step() throws ProcessKilled, which unwinds
  /// its body. p's registers remain readable (RDMA semantics, §3).
  void crash(Pid p);

  /// Simulated partial shared-memory failure (§6 future work): every later
  /// access to a register hosted at p throws MemoryFailure. Independent of
  /// crash(p) — the process may keep running.
  void fail_memory(Pid host);

  /// Install a Byzantine interposer (non-owning; must outlive the run) whose
  /// hooks run on every send and register mutation. Must be set before
  /// start(); hooks are invoked concurrently from the process threads, so
  /// the interposer must lock its own state. Null (the default) keeps the
  /// data path untouched.
  void set_byz_interposer(ByzInterposer* byz) {
    MM_ASSERT_MSG(!started_, "set_byz_interposer after start");
    byz_ = byz;
  }

  [[nodiscard]] bool finished(Pid p) const;
  [[nodiscard]] Metrics metrics_snapshot() const;
  void rethrow_process_error() const;
  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  friend class ThreadEnv;

  struct Proc {
    std::function<void(Env&)> body;
    std::unique_ptr<ThreadEnv> env;
    std::jthread thread;
    std::atomic<bool> kill{false};
    std::atomic<bool> finished{false};
    std::exception_ptr error;
  };

  struct Mailbox {
    std::mutex mutex;
    std::vector<Message> messages;
  };

  struct AtomicCounters {
    std::atomic<std::uint64_t> msgs_sent{0}, msgs_delivered{0}, msgs_dropped{0};
    std::atomic<std::uint64_t> reg_reads{0}, reg_writes{0}, reg_cas_ops{0};
    std::atomic<std::uint64_t> reg_reads_local{0}, reg_writes_local{0}, reg_cas_local{0};
  };

  struct PerProcCounters {
    std::atomic<std::uint64_t> steps{0}, sends{0}, reads{0}, writes{0};
    std::atomic<std::uint64_t> remote_reads{0}, remote_writes{0};
  };

  /// One register: its value plus the creation-time facts the access
  /// checks and interposer hooks read.
  struct RegSlot {
    std::atomic<std::uint64_t> value{0};
    Pid owner;
    bool global = false;
    RegKey key;
  };
  static constexpr std::uint32_t kRegChunkBits = 12;  ///< 4096 slots per chunk
  static constexpr std::uint32_t kRegChunks = 1024;   ///< up to 4M registers

  void check_register_access(Pid accessor, RegId r) const;
  void check_memory_alive(RegId r) const;
  RegSlot& slot(RegId r) const {
    return reg_chunks_[r.index() >> kRegChunkBits][r.index() & ((1u << kRegChunkBits) - 1)];
  }

  Config config_;
  std::vector<std::unique_ptr<Proc>> procs_;
  bool started_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<Step> clock_{0};

  // Register table: creation is rare and mutex-guarded; reads, writes and
  // CASes go lock-free to the slot. Slots live in fixed-size chunks under a
  // fixed directory, so creating a register never moves a slot, or the
  // directory entry, that another thread is reading — a growing vector or
  // deque would, racing every concurrent access. A process only uses a
  // RegId that reg() returned under reg_mutex_, which orders the slot's
  // creation before its lock-free use.
  mutable std::mutex reg_mutex_;
  std::unordered_map<RegKey, std::uint32_t> reg_index_;
  std::array<std::unique_ptr<RegSlot[]>, kRegChunks> reg_chunks_;

  ByzInterposer* byz_ = nullptr;

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<std::atomic<bool>>> memory_failed_;  ///< per host
  AtomicCounters counters_;
  std::vector<std::unique_ptr<PerProcCounters>> per_proc_;
};

}  // namespace mm::runtime
