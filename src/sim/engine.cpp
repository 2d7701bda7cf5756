#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/log.hpp"

namespace nvmeshare::sim {

namespace {
// The logger stamps messages with the most recently constructed engine's
// clock; simulations use one engine at a time.
Engine* g_logging_engine = nullptr;

long long log_time_provider() {
  return g_logging_engine ? static_cast<long long>(g_logging_engine->now()) : -1;
}
}  // namespace

Engine::Engine() : buckets_(std::make_unique<Bucket[]>(kSlots)) {
  g_logging_engine = this;
  log::set_time_provider(&log_time_provider);
}

Engine::~Engine() {
  drop_all();
  if (g_logging_engine == this) {
    g_logging_engine = nullptr;
    log::set_time_provider(nullptr);
  }
}

Engine::EvNode* Engine::make_node(Time t) {
  assert(t >= now_ && "cannot schedule into the past");
  EvNode* node;
  if (free_list_ != nullptr) {
    node = free_list_;
    free_list_ = node->next;
  } else {
    if (chunk_used_ == kChunkNodes) {
      chunks_.push_back(std::make_unique<EvNode[]>(kChunkNodes));
      chunk_used_ = 0;
    }
    node = &chunks_.back()[chunk_used_++];
  }
  node->t = t < now_ ? now_ : t;
  node->seq = seq_++;
  node->born = now_;
  node->sched_key = 2 * born_;
  node->next = nullptr;
  return node;
}

void Engine::recycle(EvNode* node) noexcept {
  node->next = free_list_;
  free_list_ = node;
}

void Engine::enqueue(EvNode* node) {
  ++live_nodes_;
  const std::uint64_t slot = slot_of(node->t);
  if (slot >= window_slot_ + kSlots) {
    overflow_.push_back(node);
    return;
  }
  // t >= now_ guarantees slot >= cursor_slot_, so the event is never
  // inserted behind the dispatch cursor.
  insert_bucket(slot, node);
}

void Engine::insert_bucket(std::uint64_t abs_slot, EvNode* node) {
  const std::uint64_t phys = abs_slot & kSlotMask;
  Bucket& b = buckets_[phys];
  // Events run in (t, born, sched_key) order, FIFO among equals.
  auto goes_after = [node](const EvNode* n) {
    if (n->t != node->t) return n->t < node->t;
    if (n->born != node->born) return n->born < node->born;
    return n->sched_key <= node->sched_key;
  };
  node->next = nullptr;
  if (b.head == nullptr) {
    b.head = b.tail = node;
    bitmap_[phys >> 6] |= 1ull << (phys & 63);
  } else if (b.tail->t < node->t || goes_after(b.tail)) {
    // Common case: an at() event is scheduled after everything already
    // queued, so FIFO order among equal timestamps is the tail position.
    b.tail->next = node;
    b.tail = node;
  } else {
    // Rare: an earlier timestamp landed behind a later one in the same
    // 128 ns bucket, or an at_born() event is involved — walk to its place.
    EvNode** link = &b.head;
    while (*link != nullptr && goes_after(*link)) link = &(*link)->next;
    node->next = *link;
    *link = node;
  }
  ++wheel_count_;
}

std::uint64_t Engine::scan_bitmap(std::uint64_t start_phys) const {
  // Wrapped scan from the cursor. Physical slots "behind" the cursor are
  // guaranteed empty (the cursor passed them and inserts clamp to
  // t >= now), so the first set bit in wrap order is the earliest bucket.
  std::uint64_t w = start_phys >> 6;
  std::uint64_t word = bitmap_[w] & (~0ull << (start_phys & 63));
  for (std::size_t i = 0; i <= kBitmapWords; ++i) {
    if (word != 0) {
      return (w << 6) + static_cast<std::uint64_t>(std::countr_zero(word));
    }
    w = (w + 1) & (kBitmapWords - 1);
    word = bitmap_[w];
  }
  assert(false && "scan_bitmap on an empty wheel");
  return 0;
}

void Engine::refill(Time min_t) {
  // The wheel is empty, so every physical bucket is free and the window
  // can be rebased with no rotation bookkeeping.
  window_slot_ = slot_of(min_t);
  cursor_slot_ = window_slot_;
  refill_scratch_.clear();
  std::size_t kept = 0;
  for (EvNode* node : overflow_) {
    if (slot_of(node->t) < window_slot_ + kSlots) {
      refill_scratch_.push_back(node);
    } else {
      overflow_[kept++] = node;
    }
  }
  overflow_.resize(kept);
  // Reinsert in dispatch order so every bucket append hits the O(1) tail
  // path and FIFO among equal timestamps survives the detour (at() events
  // are scheduled in (t, born, sched_key) order, so seq only breaks ties).
  std::sort(refill_scratch_.begin(), refill_scratch_.end(),
            [](const EvNode* a, const EvNode* b) {
              if (a->t != b->t) return a->t < b->t;
              if (a->born != b->born) return a->born < b->born;
              if (a->sched_key != b->sched_key) return a->sched_key < b->sched_key;
              return a->seq < b->seq;
            });
  for (EvNode* node : refill_scratch_) insert_bucket(slot_of(node->t), node);
  refill_scratch_.clear();
}

Engine::EvNode* Engine::pop_next(Time limit) {
  for (;;) {
    if (wheel_count_ == 0) {
      if (overflow_.empty()) return nullptr;
      Time min_t = overflow_.front()->t;
      for (const EvNode* node : overflow_) min_t = std::min(min_t, node->t);
      // Every wheel event precedes every overflow event, so the overflow
      // only matters once the wheel drained — and only if it is due.
      if (min_t > limit) return nullptr;
      refill(min_t);
      continue;
    }
    const std::uint64_t start = cursor_slot_ & kSlotMask;
    const std::uint64_t phys = scan_bitmap(start);
    Bucket& b = buckets_[phys];
    EvNode* head = b.head;
    // Peek before committing the cursor: if the earliest event is past the
    // limit, the cursor must stay at the last *popped* slot. Parking it on
    // this future bucket would let later inserts (at t >= now but before
    // this bucket) land behind the cursor, where the wrapped bitmap scan
    // would misorder them.
    if (head->t > limit) return nullptr;
    cursor_slot_ += (phys - start) & kSlotMask;
    b.head = head->next;
    if (b.head == nullptr) {
      b.tail = nullptr;
      bitmap_[phys >> 6] &= ~(1ull << (phys & 63));
    }
    --wheel_count_;
    --live_nodes_;
    return head;
  }
}

void Engine::run() {
  stopped_ = false;
  while (!stopped_) {
    EvNode* node = pop_next(std::numeric_limits<Time>::max());
    if (node == nullptr) break;
    now_ = node->t;
    born_ = node->born;
    sched_key_ = node->sched_key;
    ++processed_;
    node->fire(node, true);
    recycle(node);
  }
  leave_dispatch();
}

std::uint64_t Engine::run_until(Time t) {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_) {
    EvNode* node = pop_next(t);
    if (node == nullptr) break;
    now_ = node->t;
    born_ = node->born;
    sched_key_ = node->sched_key;
    ++processed_;
    ++n;
    node->fire(node, true);
    recycle(node);
  }
  if (!stopped_ && now_ < t) now_ = t;
  leave_dispatch();
  return n;
}

void Engine::drop_all() noexcept {
  for (std::size_t phys = 0; phys < kSlots; ++phys) {
    for (EvNode* node = buckets_[phys].head; node != nullptr; node = node->next) {
      node->fire(node, false);
    }
    buckets_[phys].head = buckets_[phys].tail = nullptr;
  }
  for (EvNode* node : overflow_) node->fire(node, false);
  overflow_.clear();
  wheel_count_ = 0;
  live_nodes_ = 0;
}

}  // namespace nvmeshare::sim
