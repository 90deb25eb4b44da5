// Reactive fault-injection hooks.
//
// A FaultInjector observes the run from inside the scheduler — every step,
// send, and register write — and may drive the runtime's dynamic fault
// actuators (crash_now, fail_memory_now, set_partition_now, begin_link_burst)
// in response. This is how the chaos engine (src/fault/) turns
// "crash p on its 5th broadcast" or "partition when round 3 starts" into
// runtime behaviour while keeping the runtime itself free of any policy.
//
// The send and register-write hooks also sit on the data path: they may
// rewrite an outgoing message per destination (equivocation, corruption,
// replay), suppress it entirely (selective silence), or rewrite the value a
// process is about to write to a register it legitimately owns or shares.
// FaultEngine hands both to its Byzantine adversary (src/fault/byzantine.hpp)
// after firing its rules.
//
// Model-legality: interposition never gains new powers. A rewritten send
// still carries the true sender (the runtime stamps m.from after the hook),
// and a rewritten register write still passes the GSM access check
// (check_register_access against reg_acl_) — a Byzantine process can only
// corrupt registers it could already write. Byzantine behaviour is the
// corruption of a process, not of the model.
//
// Determinism contract: an injector must be a pure function of the events it
// observes (no wall clock, no unseeded randomness), so an injected run stays
// a pure function of (SimConfig, process bodies, injector) and replays from
// its seed. Adversary randomness must come from a dedicated stream seeded
// from the schedule (never the runtime's sched/link/fault/proc streams), so
// an installed-but-empty adversary draws nothing and fault-free runs stay
// bit-identical. The hooks run synchronously inside the scheduler/process
// handoff, one at a time, so an injector needs no locking.
#pragma once

#include <cstdint>

#include "common/ids.hpp"
#include "runtime/message.hpp"
#include "runtime/register_key.hpp"

namespace mm::runtime {

class SimRuntime;

class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Called at the top of every scheduler step, before crash plans are
  /// applied and before the scheduling decision. Crashes injected here take
  /// effect for this very step.
  virtual void on_step(SimRuntime& rt) = 0;

  /// Called once per (sender, destination) when `from` sends `m`, before
  /// drop/delay/partition resolution — a link burst or partition opened here
  /// applies to this message, and crashing `from` takes effect at its next
  /// step boundary. May mutate `m` (equivocation sees each destination
  /// separately); returning false suppresses delivery to `to` (selective
  /// silence — counted as a drop). The runtime stamps m.from afterwards, so
  /// the sender cannot be forged.
  virtual bool on_send(SimRuntime& rt, Pid from, Pid to, Message& m) = 0;

  /// Called when `writer` is about to store `v` (plain write, or the desired
  /// value of a CAS) to the register named `key`, before access checks — a
  /// memory-failure window opened here makes this very write throw. May
  /// rewrite `v`; the write then proceeds through the normal GSM access and
  /// memory-liveness checks, so corruption stays within the writer's
  /// legitimate permissions.
  virtual void on_reg_write(SimRuntime& rt, Pid writer, RegKey key, std::uint64_t& v) = 0;
};

}  // namespace mm::runtime
