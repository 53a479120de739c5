#include "sim/event_queue.h"

#include <utility>

namespace corelite::sim {

void EventQueue::clear() {
  const auto discard = [this](const Entry& e) {
    const auto slot = static_cast<std::uint32_t>(e.key & kSlotMask);
    Slot& s = slots_[slot];
    if (s.state != nullptr) {
      // Outstanding handles must not report pending() forever.
      s.state->cancelled = true;
      s.state.reset();
    }
    s.cb.reset();
    free_slots_.push_back(slot);
  };
  for (const Entry& e : heap_) discard(e);
  heap_.clear();
  // Popped entries were already recycled.
  for (const Entry& e : buffer_) discard(e);
  buffer_.clear();
  std::vector<Entry> pending;
  wheel_.drain_all(pending);
  for (const Entry& e : pending) discard(e);
}

}  // namespace corelite::sim
