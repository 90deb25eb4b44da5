#include "core/rsm.hpp"

#include "common/assert.hpp"

namespace mm::core {

LogReplica::LogReplica(Config config) : config_(std::move(config)) {
  MM_ASSERT_MSG(config_.gsm != nullptr, "replica requires a GSM");
  MM_ASSERT_MSG(config_.command_bits >= 1 && config_.command_bits <= 63,
                "command width 1..63 bits");
  MM_ASSERT_MSG(1 + static_cast<std::uint64_t>(config_.max_slots) * config_.command_bits <= 4096,
                "slot*bits exceeds the consensus instance space");
}

std::optional<std::uint64_t> LogReplica::run_slot(runtime::Env& env, std::uint64_t command) {
  const std::size_t slot = log_.size();
  MM_ASSERT_MSG(slot < config_.max_slots, "log slot budget exhausted");
  MM_ASSERT_MSG(config_.command_bits == 64 || command < (1ULL << config_.command_bits),
                "command exceeds configured width");

  MultiConsensus::Config mc;
  mc.gsm = config_.gsm;
  mc.bits = config_.command_bits;
  mc.instance_base = 1 + static_cast<std::uint64_t>(slot) * config_.command_bits;

  MultiConsensus consensus{mc, command};
  consensus.seed_buffer(std::move(carry_));
  carry_.clear();
  consensus.run(env);
  carry_ = consensus.take_buffer();

  const auto decided = consensus.decision();
  if (!decided.has_value()) return std::nullopt;
  log_.push_back(*decided);
  if (config_.apply) config_.apply(slot, *decided);
  return decided;
}

}  // namespace mm::core
