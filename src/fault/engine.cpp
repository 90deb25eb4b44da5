#include "fault/engine.hpp"

#include "runtime/sim_runtime.hpp"

namespace mm::fault {

const char* to_string(Trigger t) noexcept {
  switch (t) {
    case Trigger::kAtStep: return "at_step";
    case Trigger::kOnNthSend: return "on_nth_send";
    case Trigger::kOnFirstWrite: return "on_first_write";
    case Trigger::kOnRoundEntry: return "on_round_entry";
  }
  return "?";
}

const char* to_string(Action a) noexcept {
  switch (a) {
    case Action::kCrash: return "crash";
    case Action::kPartition: return "partition";
    case Action::kHealPartition: return "heal_partition";
    case Action::kMemoryWindow: return "memory_window";
    case Action::kLinkBurst: return "link_burst";
    case Action::kGoByzantine: return "go_byzantine";
  }
  return "?";
}

std::optional<Trigger> trigger_from_string(std::string_view s) noexcept {
  for (auto t : {Trigger::kAtStep, Trigger::kOnNthSend, Trigger::kOnFirstWrite,
                 Trigger::kOnRoundEntry})
    if (s == to_string(t)) return t;
  return std::nullopt;
}

std::optional<Action> action_from_string(std::string_view s) noexcept {
  for (auto a : {Action::kCrash, Action::kPartition, Action::kHealPartition,
                 Action::kMemoryWindow, Action::kLinkBurst, Action::kGoByzantine})
    if (s == to_string(a)) return a;
  return std::nullopt;
}

FaultEngine::FaultEngine(std::vector<FaultRule> rules)
    : rules_(std::move(rules)),
      fired_(rules_.size(), false),
      send_seen_(rules_.size(), 0),
      adversary_(kByzSeed) {
  for (const FaultRule& r : rules_)
    any_step_rules_ |= r.trigger == Trigger::kAtStep;
}

std::size_t FaultEngine::fired_count() const noexcept {
  std::size_t k = 0;
  for (const bool f : fired_) k += f ? 1 : 0;
  return k;
}

void FaultEngine::on_step(runtime::SimRuntime& rt) {
  if (!any_step_rules_) return;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (fired_[i]) continue;
    const FaultRule& r = rules_[i];
    if (r.trigger == Trigger::kAtStep && rt.now() >= r.count)
      fire(rt, i, Pid::none());
  }
}

bool FaultEngine::on_send(runtime::SimRuntime& rt, Pid from, Pid to, runtime::Message& m) {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (fired_[i]) continue;
    const FaultRule& r = rules_[i];
    if (r.trigger != Trigger::kOnNthSend) continue;
    if (!r.who.is_none() && r.who != from) continue;
    if (++send_seen_[i] >= r.count) fire(rt, i, from);
  }
  return adversary_.on_byz_send(from, to, m);
}

void FaultEngine::on_reg_write(runtime::SimRuntime& rt, Pid writer, runtime::RegKey key,
                               std::uint64_t& v) {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (fired_[i]) continue;
    const FaultRule& r = rules_[i];
    if (!r.who.is_none() && r.who != writer) continue;
    if (r.trigger == Trigger::kOnFirstWrite) {
      if (key.tag() == r.count) fire(rt, i, writer);
    } else if (r.trigger == Trigger::kOnRoundEntry) {
      if (key.round() >= r.count) fire(rt, i, writer);
    }
  }
  adversary_.on_byz_reg_write(writer, key, v);
}

void FaultEngine::fire(runtime::SimRuntime& rt, std::size_t i, Pid context) {
  fired_[i] = true;
  const FaultRule& r = rules_[i];
  const std::size_t n = rt.config().n();
  // Instant trace event before the actuator runs, so exported traces show
  // the firing even when the action itself records nothing (e.g. byzantine
  // conversion). a = action code, b = rule index.
  rt.trace_fault(context, static_cast<std::uint64_t>(r.action), i);

  Pid target = r.target.is_none() ? context : r.target;
  if (target.is_none()) target = Pid{0};  // kAtStep has no triggering process
  // Schedules are generated/edited independently of n; an out-of-range
  // target is a no-op rather than UB.
  const bool target_ok = target.index() < n;

  switch (r.action) {
    case Action::kCrash:
      if (target_ok) rt.crash_now(target);
      break;
    case Action::kPartition: {
      if (n > 64) break;  // Partition masks cannot describe n > 64
      const Step until =
          r.duration == 0 ? ~Step{0} : rt.now() + r.duration;
      const std::uint64_t full =
          n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
      rt.set_partition_now(r.mask & full, until);
      break;
    }
    case Action::kHealPartition:
      rt.clear_partition_now();
      break;
    case Action::kMemoryWindow:
      if (target_ok) {
        rt.fail_memory_now(target, r.duration == 0
                                       ? std::nullopt
                                       : std::optional<Step>{rt.now() + r.duration});
      }
      break;
    case Action::kLinkBurst: {
      runtime::SimRuntime::LinkBurst burst;
      burst.until = rt.now() + (r.duration == 0 ? Step{1} : r.duration);
      burst.drop_prob = r.drop_prob;
      burst.dup_prob = r.dup_prob;
      burst.extra_delay_max = r.extra_delay;
      rt.begin_link_burst(burst);
      break;
    }
    case Action::kGoByzantine:
      if (target_ok) {
        adversary_.go_byzantine(
            target, ByzPolicy{r.byz_behaviors, r.byz_silence_mask, r.drop_prob});
      }
      break;
  }
}

}  // namespace mm::fault
