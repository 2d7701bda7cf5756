// C++20 coroutine primitives on top of the discrete-event Engine.
//
// Conventions:
//  * Task is an eager, detached coroutine: it runs to its first suspension
//    point when called and owns its own frame (destroyed at completion).
//    Long-lived pollers must observe a stop flag / event so the frame is
//    released before the simulation ends.
//  * All wake-ups are funneled through the Engine queue (never resumed
//    inline), which keeps interleavings deterministic and prevents
//    unbounded recursion in completion chains.
//  * Single-threaded: none of these types are thread-safe; they don't need
//    to be.
#pragma once

#include <cassert>
#include <coroutine>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace nvmeshare::sim {

// --- Task --------------------------------------------------------------------

/// Fire-and-forget coroutine. `Task f() { co_await ...; }` starts executing
/// immediately when called.
struct Task {
  struct promise_type {
    Task get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() { std::terminate(); }
  };
};

// --- delay -------------------------------------------------------------------

/// `co_await delay(engine, 100_ns)` suspends the current task for `d`
/// simulated nanoseconds.
struct DelayAwaiter {
  Engine& engine;
  Duration d;

  bool await_ready() const noexcept { return d <= 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    engine.after(d, [h]() { h.resume(); });
  }
  void await_resume() const noexcept {}
};

inline DelayAwaiter delay(Engine& engine, Duration d) { return {engine, d}; }

// --- yield -------------------------------------------------------------------

/// Re-queue the current task at the current timestamp (lets other pending
/// events at `now` run first).
inline DelayAwaiter yield_now(Engine& engine) { return {engine, 0}; }

namespace detail {
/// A single suspended waiter, shared between the wake-up path and an
/// optional timeout path so exactly one of them resumes the coroutine.
struct WaitNode {
  std::coroutine_handle<> h;
  bool resumed = false;
  bool timed_out = false;
};
using WaitNodePtr = std::shared_ptr<WaitNode>;

inline void resume_node(Engine& engine, const WaitNodePtr& node, bool timed_out) {
  if (node->resumed) return;
  node->resumed = true;
  node->timed_out = timed_out;
  engine.at(engine.now(), [node]() { node->h.resume(); });
}
}  // namespace detail

// --- Future / Promise ----------------------------------------------------------

/// One-shot value channel: a producer sets the value once; a single consumer
/// `co_await`s it. Copyable handles share state.
template <typename T>
class Future;

template <typename T>
class Promise {
 public:
  explicit Promise(Engine& engine) : state_(std::make_shared<State>(State{&engine, {}, {}})) {}

  /// Fulfill the future. Must be called exactly once.
  void set(T value) {
    assert(!state_->value.has_value() && "promise set twice");
    state_->value.emplace(std::move(value));
    if (state_->waiter) detail::resume_node(*state_->engine, state_->waiter, /*timed_out=*/false);
  }

  [[nodiscard]] bool is_set() const noexcept { return state_->value.has_value(); }

  [[nodiscard]] Future<T> future() const { return Future<T>(state_); }

 private:
  friend class Future<T>;
  struct State {
    Engine* engine;
    std::optional<T> value;
    detail::WaitNodePtr waiter;
  };
  std::shared_ptr<State> state_;
};

template <typename T>
class Future {
 public:
  Future() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] bool ready() const noexcept { return state_ && state_->value.has_value(); }

  /// Non-blocking: take the value if ready.
  [[nodiscard]] std::optional<T> try_take() {
    if (!ready()) return std::nullopt;
    std::optional<T> out = std::move(state_->value);
    return out;
  }

  // Awaitable interface: `T result = co_await future;`
  bool await_ready() const noexcept { return ready(); }
  void await_suspend(std::coroutine_handle<> h) {
    assert(state_ && !state_->waiter && "future supports a single waiter");
    state_->waiter = std::make_shared<detail::WaitNode>(detail::WaitNode{h, false, false});
  }
  T await_resume() {
    assert(ready());
    T out = std::move(*state_->value);
    return out;
  }

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<typename Promise<T>::State> state) : state_(std::move(state)) {}
  std::shared_ptr<typename Promise<T>::State> state_;
};

// --- Event -------------------------------------------------------------------

/// Manual-reset event with any number of waiters and optional timeout.
class Event {
 public:
  explicit Event(Engine& engine) : engine_(engine) {}

  void set() {
    set_ = true;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto& node : waiters) detail::resume_node(engine_, node, /*timed_out=*/false);
  }

  /// set(), but resuming the waiters at once instead of through the
  /// engine queue. Only for an owner being destroyed whose waiters merely
  /// observe that and exit: a queued wake-up would be dropped with the
  /// engine at teardown and leak their frames.
  void release_waiters() {
    set_ = true;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto& node : waiters) {
      if (node->resumed) continue;
      node->resumed = true;
      node->h.resume();
    }
  }

  void reset() noexcept { set_ = false; }
  [[nodiscard]] bool is_set() const noexcept { return set_; }

  /// Awaitable that completes when the event is set. Result: true if the
  /// event fired, false on timeout (timeout < 0 means wait forever).
  struct WaitAwaiter {
    Event& event;
    Duration timeout;
    detail::WaitNodePtr node;

    bool await_ready() const noexcept { return event.set_; }
    void await_suspend(std::coroutine_handle<> h) {
      node = std::make_shared<detail::WaitNode>(detail::WaitNode{h, false, false});
      event.waiters_.push_back(node);
      if (timeout >= 0) {
        auto n = node;
        Engine& eng = event.engine_;
        eng.after(timeout, [&eng, n]() { detail::resume_node(eng, n, /*timed_out=*/true); });
      }
    }
    bool await_resume() const noexcept { return node == nullptr || !node->timed_out; }
  };

  [[nodiscard]] WaitAwaiter wait() { return WaitAwaiter{*this, -1, {}}; }
  [[nodiscard]] WaitAwaiter wait_for(Duration timeout) { return WaitAwaiter{*this, timeout, {}}; }

 private:
  Engine& engine_;
  bool set_ = false;
  std::vector<detail::WaitNodePtr> waiters_;
};

// --- Mailbox -----------------------------------------------------------------

/// Unbounded FIFO channel with awaitable pop; the shared-memory mailbox RPC
/// between driver manager and clients, and block-layer dispatch, sit on it.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Engine& engine) : engine_(engine) {}

  void push(T item) {
    items_.push_back(std::move(item));
    wake_one();
  }

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }

  [[nodiscard]] std::optional<T> try_pop() {
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    return out;
  }

  /// Awaitable pop with optional timeout; resolves to nullopt on timeout.
  struct PopAwaiter {
    Mailbox& box;
    Duration timeout;
    detail::WaitNodePtr node;

    bool await_ready() const noexcept { return !box.items_.empty(); }
    void await_suspend(std::coroutine_handle<> h) {
      node = std::make_shared<detail::WaitNode>(detail::WaitNode{h, false, false});
      box.waiters_.push_back(node);
      if (timeout >= 0) {
        auto n = node;
        Engine& eng = box.engine_;
        eng.after(timeout, [&eng, n]() { detail::resume_node(eng, n, /*timed_out=*/true); });
      }
    }
    std::optional<T> await_resume() {
      if (node && node->timed_out) return std::nullopt;
      // A racing consumer may have drained the queue between wake-up
      // scheduling and resumption; retry contract: nullopt.
      return box.try_pop();
    }
  };

  [[nodiscard]] PopAwaiter pop() { return PopAwaiter{*this, -1, {}}; }
  [[nodiscard]] PopAwaiter pop_for(Duration timeout) { return PopAwaiter{*this, timeout, {}}; }

 private:
  void wake_one() {
    while (!waiters_.empty()) {
      auto node = std::move(waiters_.front());
      waiters_.erase(waiters_.begin());
      if (!node->resumed) {
        detail::resume_node(engine_, node, /*timed_out=*/false);
        return;
      }
    }
  }

  Engine& engine_;
  std::deque<T> items_;
  std::vector<detail::WaitNodePtr> waiters_;
};

// --- Semaphore ----------------------------------------------------------------

/// Counting semaphore; models bounded resources such as in-flight request
/// slots (queue depth) and NVMe media channel parallelism.
class Semaphore {
 public:
  Semaphore(Engine& engine, std::int64_t initial) : engine_(engine), count_(initial) {}

  [[nodiscard]] std::int64_t available() const noexcept { return count_; }

  void release(std::int64_t n = 1) {
    count_ += n;
    while (count_ > 0 && !waiters_.empty()) {
      auto node = std::move(waiters_.front());
      waiters_.erase(waiters_.begin());
      if (node->resumed) continue;
      --count_;
      detail::resume_node(engine_, node, /*timed_out=*/false);
    }
  }

  struct AcquireAwaiter {
    Semaphore& sem;

    bool await_ready() const noexcept {
      if (sem.count_ > 0) {
        --sem.count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      sem.waiters_.push_back(
          std::make_shared<detail::WaitNode>(detail::WaitNode{h, false, false}));
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] AcquireAwaiter acquire() { return AcquireAwaiter{*this}; }

  [[nodiscard]] bool try_acquire() noexcept {
    if (count_ > 0) {
      --count_;
      return true;
    }
    return false;
  }

 private:
  Engine& engine_;
  std::int64_t count_;
  std::vector<detail::WaitNodePtr> waiters_;
};

}  // namespace nvmeshare::sim
