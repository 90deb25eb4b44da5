#include "net/msg_buffer.hpp"

#include <algorithm>
#include <iterator>

namespace mm::net {

void MsgBuffer::ingest(std::vector<Message> msgs) {
  msgs_.insert(msgs_.end(), std::make_move_iterator(msgs.begin()),
               std::make_move_iterator(msgs.end()));
}

void MsgBuffer::pump(runtime::Env& env) {
  env.drain_inbox(scratch_);
  msgs_.insert(msgs_.end(), std::make_move_iterator(scratch_.begin()),
               std::make_move_iterator(scratch_.end()));
  scratch_.clear();  // keeps capacity for the next drain
}

const Message* MsgBuffer::first_matching(std::uint32_t kind, std::uint64_t round) const {
  const auto it = std::find_if(msgs_.begin(), msgs_.end(), [&](const Message& m) {
    return m.kind == kind && m.round == round;
  });
  return it == msgs_.end() ? nullptr : &*it;
}

void MsgBuffer::gc_below(std::uint64_t round) {
  std::erase_if(msgs_, [round](const Message& m) { return m.round < round; });
}

}  // namespace mm::net
