// Polling on a fixed grid without simulating the rounds that see nothing.
//
// A poller that checks shared memory every `interval` (a client reaping its
// CQ, a manager scanning its mailbox) has rounds at origin + k*interval. A
// round can only see something new after a write lands in the memory it
// polls, or after a change the owner reports (its I/O engine going idle).
// PollGrid is told about every write into the watched range when it is
// issued (with its landing time) and when it lands, so after a round it
// knows the first grid tick that could observe anything. The poller sleeps
// until then and the rounds in between are counted, not run.
//
// The rounds that do run must sit where the spinning chain of rounds would
// have put them, in time and in the order among events at the same instant.
// Each round of that chain is scheduled by its predecessor one interval
// earlier, so a real round at tick T is scheduled either by a real round at
// T - interval (the poller resumes one tick early, as the chain would) or,
// when that moment has passed, with Engine::at_born() as if scheduled then.
// The same order decides a write landing exactly on a tick: the round sees
// it iff the landing was scheduled first.
// Where the chain's place among events scheduled at the very same instant
// is unknowable, a skipped round counts as scheduled after them.
#pragma once

#include <coroutine>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/engine.hpp"

namespace nvmeshare::sim {

class PollGrid {
 public:
  /// `landings_lead` declares that every watched write is issued more than
  /// one interval before it lands (true for NVMe CQ entries); min_lead()
  /// reports the smallest lead seen so tests can check it.
  PollGrid(Engine& engine, Duration interval, bool landings_lead);

  [[nodiscard]] Duration interval() const noexcept { return interval_; }
  /// Smallest landing - issue time among the watched writes so far.
  [[nodiscard]] Duration min_lead() const noexcept { return min_lead_; }

  // --- watched memory (called by fabric::Substrate) ---------------------------

  /// A write into the watched range was issued now and lands at `landing`.
  void write_issued(Time landing);
  /// The oldest in-flight watched write landing now has landed.
  void write_landed();

  // --- the poller ---------------------------------------------------------------

  /// Awaited right after every round (the round ran at now(), which becomes
  /// a tick of the grid). Resumes at the next round that must run and
  /// yields how many rounds were skipped before it. `spin` forces the next
  /// tick to run (the poller's own state changed, e.g. it found work).
  class NextAwaiter;
  [[nodiscard]] NextAwaiter next(bool spin);

  /// Awaited while the poller has nothing to wait for (no command in
  /// flight): resumes after kick(). The next round starts a new grid.
  [[nodiscard]] NextAwaiter idle();
  /// Work is coming: an idle poller resumes now, through the engine queue.
  void kick();

  /// Something the next tick would observe changed now (not a watched
  /// write): wake a sleeping poller at that tick.
  void changed();

  /// The poller was told to stop: resume it at once so it can exit, and
  /// return how many rounds the skipped chain ran after its last round up
  /// to now.
  std::uint64_t halt();

 private:
  /// The suspended poller, shared with the wake-up events it schedules so a
  /// wake-up that outlives the poller's owner is harmless.
  struct Sleeper {
    std::coroutine_handle<> handle;
    bool idle = false;  ///< waiting for kick(), not for a tick
    std::uint64_t generation = 0;
    Time wake = std::numeric_limits<Time>::max();
    std::uint64_t skipped = 0;
  };

  [[nodiscard]] bool on_tick(Time t) const noexcept {
    return t >= last_round_ && (t - last_round_) % interval_ == 0;
  }
  /// First tick at or after `t` that comes after the last round.
  [[nodiscard]] Time tick_at_or_after(Time t) const noexcept;
  /// When the skipped round at tick `t` would have been scheduled by the
  /// round that scheduled it.
  [[nodiscard]] Time skipped_sched_by(Time t) const noexcept;
  /// Has the tick at now() (if now() is one) already run, seen from the
  /// running event?
  [[nodiscard]] bool tick_now_ran() const noexcept;
  /// The tick to resume at for a round that must run at `observe`.
  [[nodiscard]] Time resume_tick(Time observe) const noexcept;
  /// Earliest tick at which a round must run for the writes in flight.
  [[nodiscard]] Time first_needed_round() const noexcept;
  void drop_landed();
  void pop();
  /// While asleep: make sure a round runs at tick `t`.
  void wake_at(Time t);

  Engine& engine_;
  Duration interval_;
  bool landings_lead_;
  Duration min_lead_ = std::numeric_limits<Duration>::max();
  Time last_round_ = 0;
  Time last_round_born_ = 0;  ///< when the event running the last round was scheduled
  /// Landing times of the watched writes not yet landed, in order.
  std::vector<Time> in_flight_;
  std::size_t head_ = 0;
  std::shared_ptr<Sleeper> sleeper_ = std::make_shared<Sleeper>();
};

class PollGrid::NextAwaiter {
 public:
  enum class Mode : std::uint8_t { round, spin, idle };
  NextAwaiter(PollGrid& grid, Mode mode) : grid_(grid), mode_(mode) {}
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  std::uint64_t await_resume() const noexcept;

 private:
  PollGrid& grid_;
  Mode mode_;
  std::shared_ptr<Sleeper> sleeper_;  ///< set when the poller went to sleep
};

inline PollGrid::NextAwaiter PollGrid::next(bool spin) {
  return NextAwaiter(*this, spin ? NextAwaiter::Mode::spin : NextAwaiter::Mode::round);
}
inline PollGrid::NextAwaiter PollGrid::idle() { return NextAwaiter(*this, NextAwaiter::Mode::idle); }

}  // namespace nvmeshare::sim
