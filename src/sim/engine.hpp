// Deterministic discrete-event simulation engine.
//
// The whole cluster (hosts, NICs, switch chips, the NVMe controller) runs on
// one Engine. Every state change is an event at a simulated-nanosecond
// timestamp; ties are broken by insertion order, so a given seed always
// produces the same interleaving. Single-threaded by construction — the
// parallelism the paper exploits (multiple hosts driving independent queue
// pairs) is modeled as concurrent *simulated* activities, not OS threads.
//
// The event core is built for wall-clock speed (docs/performance.md):
//
//  - a calendar queue (bucketed timer wheel) instead of a binary heap.
//    Time is divided into 2^kSlotShift-ns buckets; a window of kSlots
//    consecutive buckets is live at once, and anything scheduled past the
//    window waits in an overflow list. Because every event in the window
//    is strictly earlier than every overflow event, the overflow is only
//    consulted when the wheel drains — schedule and dispatch are O(1) on
//    the hot path (a bitmap scan finds the next non-empty bucket).
//  - an intrusive node arena: event nodes come from a chunked free list
//    and callables are constructed into fixed inline storage in the node,
//    so the steady-state schedule/dispatch cycle performs no heap
//    allocation (oversized callables fall back to one heap box).
//
// Determinism invariants, identical to the original heap-based core:
// events fire in ascending (timestamp, insertion-seq) order; per-bucket
// lists are kept (t, seq)-sorted, and the overflow refill re-sorts by
// (t, seq) before reinserting, so FIFO among equal timestamps holds
// everywhere. Each event also records when it was scheduled and when the
// event that scheduled it was; FIFO order agrees with that order, and
// at_born() uses it to file an event as if scheduled at another time.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace nvmeshare::sim {

class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule `fn` (any void() callable) at absolute time `t` (>= now()).
  template <typename F>
  void at(Time t, F&& fn) {
    EvNode* node = make_node(t);
    bind_callable(node, std::forward<F>(fn));
    enqueue(node);
  }

  /// Schedule `fn` after `d` nanoseconds (d >= 0).
  template <typename F>
  void after(Duration d, F&& fn) {
    at(now_ + d, std::forward<F>(fn));
  }

  /// Schedule `fn` at `t` in the place an event would hold that was
  /// scheduled at time `born` (past or future) by an event itself
  /// scheduled at `sched_by`. Events at one instant run in (born,
  /// sched_by) order — for at() that is FIFO — and this one goes after its
  /// equals. Pollers that skip idle rounds use it to put a round where the
  /// skipped chain of rounds (each scheduled one interval ahead by the one
  /// before) would have put it. It keeps that place only within the wheel's
  /// window (262 us), far beyond any poll interval.
  template <typename F>
  void at_born(Time t, Time born, Time sched_by, F&& fn) {
    EvNode* node = make_node(t);
    node->born = born;
    node->sched_key = 2 * sched_by + 1;
    bind_callable(node, std::forward<F>(fn));
    enqueue(node);
  }

  /// When the running event was scheduled, and when the event that
  /// scheduled it was (the at_born() values for such events); now() for
  /// both outside run()/run_until().
  [[nodiscard]] Time current_born() const noexcept { return born_; }
  [[nodiscard]] Time current_sched_by() const noexcept { return sched_key_ >> 1; }

  /// Run until no events remain or stop() is called.
  void run();

  /// Run events with timestamp <= `t`; afterwards now() == t (even if the
  /// queue drained early). Returns number of events processed.
  std::uint64_t run_until(Time t);

  /// Convenience: run_until(now() + d).
  std::uint64_t run_for(Duration d) { return run_until(now_ + d); }

  /// Ask run()/run_until() to return after the current event.
  void stop() noexcept { stopped_ = true; }
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }
  [[nodiscard]] std::size_t pending_events() const noexcept { return live_nodes_; }

 private:
  // Wheel geometry: 2048 buckets of 128 ns cover a 262 us window — wide
  // enough that doorbell stores, switch hops, media service, poll
  // intervals, and retry backoffs all land in the wheel; only ms-scale
  // watchdogs visit the overflow list.
  static constexpr unsigned kSlotShift = 7;            ///< 128 ns per bucket
  static constexpr std::size_t kSlots = 2048;          ///< live window, power of two
  static constexpr std::uint64_t kSlotMask = kSlots - 1;
  static constexpr std::size_t kBitmapWords = kSlots / 64;
  /// Inline callable storage. Sized for the largest hot-path captures
  /// (fabric delivery lambdas carrying a small vector plus a resolved
  /// target); anything bigger takes the heap-box fallback.
  static constexpr std::size_t kInlineBytes = 88;
  static constexpr std::size_t kChunkNodes = 256;  ///< arena growth quantum

  /// One scheduled event: intrusive list node + type-erased callable.
  struct EvNode {
    Time t = 0;
    std::uint64_t seq = 0;  ///< FIFO among equal timestamps
    Time born = 0;  ///< now() when scheduled
    /// 2 x born of the event that scheduled this one, + 1 for at_born(), so
    /// at_born() events order after at() events of equal (born, sched_by).
    Time sched_key = 0;
    EvNode* next = nullptr;
    /// Invoke the callable (unless tearing down), then destroy it.
    void (*fire)(EvNode*, bool invoke) = nullptr;
    alignas(std::max_align_t) std::byte storage[kInlineBytes];
  };
  struct Bucket {
    EvNode* head = nullptr;
    EvNode* tail = nullptr;
  };

  template <typename F>
  static void bind_callable(EvNode* node, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>, "event callable must be void()");
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(node->storage)) Fn(std::forward<F>(fn));
      node->fire = [](EvNode* n, bool invoke) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(n->storage));
        if (invoke) (*f)();
        f->~Fn();
      };
    } else {
      ::new (static_cast<void*>(node->storage)) Fn*(new Fn(std::forward<F>(fn)));
      node->fire = [](EvNode* n, bool invoke) {
        Fn* f = *std::launder(reinterpret_cast<Fn**>(n->storage));
        if (invoke) (*f)();
        delete f;
      };
    }
  }

  [[nodiscard]] static std::uint64_t slot_of(Time t) noexcept {
    return static_cast<std::uint64_t>(t) >> kSlotShift;
  }

  [[nodiscard]] EvNode* make_node(Time t);
  void enqueue(EvNode* node);
  void insert_bucket(std::uint64_t abs_slot, EvNode* node);
  /// After run()/run_until(): code outside the engine schedules as an
  /// event of now().
  void leave_dispatch() noexcept {
    born_ = now_;
    sched_key_ = 2 * now_;
  }
  /// Unlink and return the earliest event with t <= limit, or nullptr.
  [[nodiscard]] EvNode* pop_next(Time limit);
  /// Jump the window to the earliest overflow event and move everything
  /// that now fits into the wheel (the wheel must be empty).
  void refill(Time min_t);
  [[nodiscard]] std::uint64_t scan_bitmap(std::uint64_t start_phys) const;
  void recycle(EvNode* node) noexcept;
  void drop_all() noexcept;

  // --- calendar wheel -------------------------------------------------------
  std::unique_ptr<Bucket[]> buckets_;        ///< kSlots, indexed abs_slot & kSlotMask
  std::uint64_t bitmap_[kBitmapWords] = {};  ///< non-empty buckets (physical index)
  std::vector<EvNode*> overflow_;            ///< events past the window, unordered
  std::vector<EvNode*> refill_scratch_;
  std::uint64_t window_slot_ = 0;  ///< abs slot of the window base
  std::uint64_t cursor_slot_ = 0;  ///< abs slot the dispatch cursor reached
  std::size_t wheel_count_ = 0;    ///< events currently in buckets

  // --- node arena -----------------------------------------------------------
  std::vector<std::unique_ptr<EvNode[]>> chunks_;
  std::size_t chunk_used_ = kChunkNodes;  ///< forces the first chunk allocation
  EvNode* free_list_ = nullptr;
  std::size_t live_nodes_ = 0;  ///< scheduled and not yet fired

  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  Time born_ = 0;       ///< born of the event being dispatched
  Time sched_key_ = 0;  ///< and its sched_key
  bool stopped_ = false;
};

}  // namespace nvmeshare::sim
