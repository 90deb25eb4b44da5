// Free-running multithreaded runtime: one std::jthread per process, real
// atomics for registers, mutexed mailboxes for links. The same algorithm
// objects that run under SimRuntime run here unchanged — E8 Part B and the
// real-concurrency tests use it to confirm results are not artifacts of
// cooperative scheduling.
//
// Links are reliable and memory never fails: the adversary (fair-lossy
// links, memory failures, Byzantine processes) is SimRuntime's, because only
// a seeded run replays. crash() is the one fault this runtime injects.
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

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "runtime/env.hpp"
#include "runtime/sim_config.hpp"  // ConfigError

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
  ThreadRuntime* rt_;
  Pid self_;
  Rng rng_;
};

class ThreadRuntime {
 public:
  struct Config {
    graph::Graph gsm;
    std::uint64_t seed = 1;

    [[nodiscard]] std::size_t n() const noexcept { return gsm.size(); }
  };

  /// Throws ConfigError on an empty GSM.
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

  [[nodiscard]] bool finished(Pid p) const;
  void rethrow_process_error() const;

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

  /// One register: its value plus the creation-time facts the access check
  /// reads.
  struct RegSlot {
    std::atomic<std::uint64_t> value{0};
    Pid owner;
    bool global = false;
  };
  static constexpr std::uint32_t kRegChunkBits = 12;  ///< 4096 slots per chunk
  static constexpr std::uint32_t kRegChunks = 1024;   ///< up to 4M registers

  void check_register_access(Pid accessor, RegId r) const;
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

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
};

}  // namespace mm::runtime
