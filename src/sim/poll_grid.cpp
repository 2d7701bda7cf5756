#include "sim/poll_grid.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace nvmeshare::sim {

PollGrid::PollGrid(Engine& engine, Duration interval, bool landings_lead)
    : engine_(engine), interval_(interval), landings_lead_(landings_lead) {
  assert(interval_ > 0);
}

Time PollGrid::tick_at_or_after(Time t) const noexcept {
  const Time from = std::max(t, last_round_ + 1);
  const Duration k = (from - last_round_ + interval_ - 1) / interval_;
  return last_round_ + k * interval_;
}

Time PollGrid::skipped_sched_by(Time t) const noexcept {
  // The round at t is scheduled at t - interval by the round at
  // t - interval, itself scheduled at t - 2 intervals — or by the last real
  // round, scheduled when that one was.
  return t - interval_ == last_round_ ? last_round_born_ : t - 2 * interval_;
}

bool PollGrid::tick_now_ran() const noexcept {
  const Time now = engine_.now();
  if (now == last_round_) return true;
  // Skipped rounds go after events scheduled at the same times.
  const Time born = engine_.current_born();
  const Time round_born = now - interval_;
  return born > round_born ||
         (born == round_born && engine_.current_sched_by() > skipped_sched_by(now));
}

Time PollGrid::resume_tick(Time observe) const noexcept {
  // Resume one tick early, so the observing round is scheduled by a real
  // round as in the spinning chain — unless that tick has passed already.
  const Time before = observe - interval_;
  const Time now = engine_.now();
  if (before == last_round_) return observe;
  return before > now || (before == now && !tick_now_ran()) ? before : observe;
}

Time PollGrid::first_needed_round() const noexcept {
  if (head_ == in_flight_.size()) return std::numeric_limits<Time>::max();
  // A write landing on a tick may run after that tick's round; the round
  // filed for it then misses it, and the write is still in flight at the
  // next decision.
  return resume_tick(tick_at_or_after(in_flight_[head_]));
}

void PollGrid::write_issued(Time landing) {
  const Time now = engine_.now();
  assert(landing > now);
  min_lead_ = std::min(min_lead_, landing - now);
  // The tie invariant of MODEL.md §8: the tick before the observing one is
  // still ahead, so the poller resumes there with an ordinary event.
  assert(!landings_lead_ || landing - now > interval_);
  // Keep landing order: landing events run in that order.
  auto pos = in_flight_.end();
  while (pos != in_flight_.begin() + static_cast<std::ptrdiff_t>(head_) && *(pos - 1) > landing) {
    --pos;
  }
  in_flight_.insert(pos, landing);
  if (sleeper_->handle && !sleeper_->idle) wake_at(resume_tick(tick_at_or_after(landing)));
}

void PollGrid::write_landed() {
  drop_landed();
  if (head_ == in_flight_.size() || in_flight_[head_] != engine_.now()) return;
  pop();
}

void PollGrid::drop_landed() {
  // A write whose landing was not reported (a torn write that stopped short
  // of the range) is known to be in the past by now.
  while (head_ != in_flight_.size() && in_flight_[head_] < engine_.now()) pop();
}

void PollGrid::pop() {
  if (++head_ == in_flight_.size()) {
    in_flight_.clear();
    head_ = 0;
  } else if (head_ >= 64 && head_ * 2 >= in_flight_.size()) {
    in_flight_.erase(in_flight_.begin(), in_flight_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void PollGrid::kick() {
  Sleeper& s = *sleeper_;
  if (!s.handle || !s.idle || s.wake != std::numeric_limits<Time>::max()) return;
  s.wake = engine_.now();  // one resumption, however many kicks
  const std::uint64_t gen = ++s.generation;
  engine_.at(s.wake, [sp = sleeper_, gen]() {
    if (sp->generation != gen || !sp->handle) return;
    sp->wake = std::numeric_limits<Time>::max();
    std::exchange(sp->handle, {}).resume();
  });
}

void PollGrid::changed() {
  if (!sleeper_->handle || sleeper_->idle) return;
  const Time now = engine_.now();
  wake_at(on_tick(now) && !tick_now_ran() ? now : tick_at_or_after(now + 1));
}

std::uint64_t PollGrid::halt() {
  Sleeper& s = *sleeper_;
  if (!s.handle) return 0;
  std::uint64_t rounds = 0;
  if (!s.idle) {
    const Time now = engine_.now();
    rounds = static_cast<std::uint64_t>((now - last_round_) / interval_);
    if (rounds > 0 && on_tick(now) && !tick_now_ran()) --rounds;
  }
  s.wake = std::numeric_limits<Time>::max();
  s.skipped = 0;
  ++s.generation;  // cancels any pending wake-up
  // Resumed inline: the poller only sees its stop flag and exits, which
  // also frees its frame when the owner is being destroyed.
  std::exchange(s.handle, {}).resume();
  return rounds;
}

void PollGrid::wake_at(Time t) {
  Sleeper& s = *sleeper_;
  if (!s.handle || t >= s.wake) return;
  s.wake = t;
  s.skipped = static_cast<std::uint64_t>((t - last_round_) / interval_ - 1);
  const std::uint64_t gen = ++s.generation;
  auto wake = [sp = sleeper_, gen]() {
    if (sp->generation != gen || !sp->handle) return;
    sp->wake = std::numeric_limits<Time>::max();
    std::exchange(sp->handle, {}).resume();
  };
  // File the round where the skipped chain would have put it.
  engine_.at_born(t, t - interval_, skipped_sched_by(t), std::move(wake));
}

void PollGrid::NextAwaiter::await_suspend(std::coroutine_handle<> h) {
  PollGrid& g = grid_;
  sleeper_ = g.sleeper_;
  if (mode_ == Mode::idle) {
    sleeper_->handle = h;
    sleeper_->idle = true;
    sleeper_->wake = std::numeric_limits<Time>::max();
    sleeper_->skipped = 0;
    return;
  }
  const Time now = g.engine_.now();
  g.last_round_ = now;
  g.last_round_born_ = g.engine_.current_born();
  g.drop_landed();
  const Time need = mode_ == Mode::spin ? now + g.interval_ : g.first_needed_round();
  if (need <= now + g.interval_) {
    sleeper_->skipped = 0;
    g.engine_.at(now + g.interval_, [h]() { h.resume(); });  // as sim::delay
    return;
  }
  sleeper_->handle = h;
  sleeper_->idle = false;
  sleeper_->wake = std::numeric_limits<Time>::max();
  sleeper_->skipped = 0;
  if (need != std::numeric_limits<Time>::max()) g.wake_at(need);
}

std::uint64_t PollGrid::NextAwaiter::await_resume() const noexcept {
  return sleeper_->skipped;
}

}  // namespace nvmeshare::sim
