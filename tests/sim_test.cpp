// Unit tests for the discrete-event engine and coroutine primitives.
#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include "sim/engine.hpp"
#include "sim/poll_grid.hpp"
#include "sim/task.hpp"

namespace nvmeshare::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, RunsEventsInTimestampOrder) {
  Engine e;
  std::vector<int> order;
  e.at(30, [&] { order.push_back(3); });
  e.at(10, [&] { order.push_back(1); });
  e.at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, EqualTimestampsAreFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    e.at(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, RunUntilAdvancesClockEvenWhenQueueDrains) {
  Engine e;
  e.at(10, [] {});
  e.run_until(100);
  EXPECT_EQ(e.now(), 100);
}

TEST(Engine, RunUntilDoesNotRunLaterEvents) {
  Engine e;
  bool late = false;
  e.at(200, [&] { late = true; });
  e.run_until(100);
  EXPECT_FALSE(late);
  EXPECT_EQ(e.pending_events(), 1u);
  e.run_until(200);
  EXPECT_TRUE(late);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 5) e.after(10, chain);
  };
  e.after(10, chain);
  e.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now(), 50);
}

TEST(Engine, StopHaltsProcessing) {
  Engine e;
  int count = 0;
  e.at(1, [&] { ++count; });
  e.at(2, [&] {
    ++count;
    e.stop();
  });
  e.at(3, [&] { ++count; });
  e.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(e.pending_events(), 1u);
}

TEST(Delay, SuspendsForExactDuration) {
  Engine e;
  Time resumed_at = -1;
  [](Engine& eng, Time& out) -> Task {
    co_await delay(eng, 123);
    out = eng.now();
  }(e, resumed_at);
  e.run();
  EXPECT_EQ(resumed_at, 123);
}

TEST(Delay, ZeroDelayDoesNotSuspend) {
  Engine e;
  bool ran = false;
  [](Engine& eng, bool& out) -> Task {
    co_await delay(eng, 0);
    out = true;
  }(e, ran);
  EXPECT_TRUE(ran);  // ran eagerly, before e.run()
}

TEST(FuturePromise, DeliversValue) {
  Engine e;
  Promise<int> p(e);
  int got = 0;
  [](Engine&, Promise<int> promise, int& out) -> Task {
    out = co_await promise.future();
  }(e, p, got);
  EXPECT_EQ(got, 0);
  p.set(42);
  e.run();
  EXPECT_EQ(got, 42);
}

TEST(FuturePromise, ValueBeforeAwaitIsImmediate) {
  Engine e;
  Promise<int> p(e);
  p.set(7);
  EXPECT_TRUE(p.future().ready());
  int got = 0;
  [](Promise<int> promise, int& out) -> Task { out = co_await promise.future(); }(p, got);
  EXPECT_EQ(got, 7);
}

TEST(Event, WakesAllWaiters) {
  Engine e;
  Event ev(e);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    [](Event& event, int& count) -> Task {
      co_await event.wait();
      ++count;
    }(ev, woken);
  }
  e.run();
  EXPECT_EQ(woken, 0);
  ev.set();
  e.run();
  EXPECT_EQ(woken, 3);
}

TEST(Event, WaitOnSetEventReturnsImmediately) {
  Engine e;
  Event ev(e);
  ev.set();
  bool done = false;
  [](Event& event, bool& out) -> Task {
    co_await event.wait();
    out = true;
  }(ev, done);
  EXPECT_TRUE(done);
}

TEST(Event, WaitForTimesOut) {
  Engine e;
  Event ev(e);
  bool fired = true;
  [](Event& event, bool& out) -> Task { out = co_await event.wait_for(100); }(ev, fired);
  e.run();
  EXPECT_FALSE(fired);           // timed out
  EXPECT_EQ(e.now(), 100);
}

TEST(Event, WaitForSucceedsBeforeTimeout) {
  Engine e;
  Event ev(e);
  bool fired = false;
  [](Event& event, bool& out) -> Task { out = co_await event.wait_for(100); }(ev, fired);
  e.after(50, [&] { ev.set(); });
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Mailbox, FifoOrder) {
  Engine e;
  Mailbox<int> box(e);
  box.push(1);
  box.push(2);
  box.push(3);
  std::vector<int> got;
  [](Mailbox<int>& b, std::vector<int>& out) -> Task {
    for (int i = 0; i < 3; ++i) {
      auto v = co_await b.pop();
      out.push_back(*v);
    }
  }(box, got);
  e.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Mailbox, PopWakesOnPush) {
  Engine e;
  Mailbox<int> box(e);
  int got = 0;
  [](Mailbox<int>& b, int& out) -> Task {
    auto v = co_await b.pop();
    out = *v;
  }(box, got);
  e.run();
  EXPECT_EQ(got, 0);
  box.push(99);
  e.run();
  EXPECT_EQ(got, 99);
}

TEST(Mailbox, PopForTimesOutWithNullopt) {
  Engine e;
  Mailbox<int> box(e);
  bool got_value = true;
  [](Mailbox<int>& b, bool& out) -> Task {
    auto v = co_await b.pop_for(250);
    out = v.has_value();
  }(box, got_value);
  e.run();
  EXPECT_FALSE(got_value);
  EXPECT_EQ(e.now(), 250);
}

TEST(Semaphore, LimitsConcurrency) {
  Engine e;
  Semaphore sem(e, 2);
  int active = 0;
  int peak = 0;
  for (int i = 0; i < 5; ++i) {
    [](Engine& eng, Semaphore& s, int& act, int& pk) -> Task {
      co_await s.acquire();
      ++act;
      pk = std::max(pk, act);
      co_await delay(eng, 10);
      --act;
      s.release();
    }(e, sem, active, peak);
  }
  e.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  EXPECT_EQ(sem.available(), 2);
}

TEST(Semaphore, TryAcquire) {
  Engine e;
  Semaphore sem(e, 1);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
}

TEST(Event, SetDuringTimeoutRaceResumesExactlyOnce) {
  // The event fires at the same instant the timeout expires. The waiter
  // must resume exactly once, and the tie is deterministic: the timeout
  // event was enqueued first (at suspension time), so it wins FIFO order.
  Engine e;
  Event ev(e);
  int resumes = 0;
  bool fired = false;
  [](Event& event, int& n, bool& out) -> Task {
    out = co_await event.wait_for(100);
    ++n;
  }(ev, resumes, fired);
  e.at(100, [&] { ev.set(); });
  e.run();
  EXPECT_EQ(resumes, 1);
  EXPECT_FALSE(fired);      // the timeout won the tie...
  EXPECT_TRUE(ev.is_set()); // ...but the set() still happened
}

TEST(Mailbox, OnePushWakesExactlyOneOfTwoWaiters) {
  Engine e;
  Mailbox<int> box(e);
  int got_value = 0;
  int resumed_empty = 0;
  for (int i = 0; i < 2; ++i) {
    [](Mailbox<int>& b, int& value, int& empty) -> Task {
      auto v = co_await b.pop_for(1000);
      if (v) {
        value = *v;
      } else {
        ++empty;
      }
    }(box, got_value, resumed_empty);
  }
  box.push(7);
  e.run();
  EXPECT_EQ(got_value, 7);
  EXPECT_EQ(resumed_empty, 1);  // the other waiter timed out with nullopt
}

TEST(Semaphore, BulkReleaseWakesMultipleWaiters) {
  Engine e;
  Semaphore sem(e, 0);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    [](Semaphore& s, int& n) -> Task {
      co_await s.acquire();
      ++n;
    }(sem, woken);
  }
  e.run();
  EXPECT_EQ(woken, 0);
  sem.release(2);
  e.run();
  EXPECT_EQ(woken, 2);
  sem.release(1);
  e.run();
  EXPECT_EQ(woken, 3);
}

TEST(FuturePromise, TryTakeConsumesOnce) {
  Engine e;
  Promise<int> p(e);
  auto f = p.future();
  EXPECT_FALSE(f.try_take().has_value());
  p.set(5);
  auto v = f.try_take();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 5);
}

TEST(Determinism, SameScheduleTwice) {
  auto run_once = []() {
    Engine e;
    std::vector<int> order;
    Event ev(e);
    Mailbox<int> box(e);
    for (int i = 0; i < 4; ++i) {
      [](Engine& eng, Event& event, Mailbox<int>& b, std::vector<int>& out, int id) -> Task {
        co_await delay(eng, 10 * (id % 2));
        co_await event.wait();
        b.push(id);
        out.push_back(id);
      }(e, ev, box, order, i);
    }
    e.after(50, [&] { ev.set(); });
    e.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- calendar-queue vs reference-heap property sweep --------------------------
//
// The calendar queue must fire events in exactly the order the old binary
// heap did: ascending (timestamp, insertion-seq). Both sides replay the same
// deterministic program — event ids are allocated in schedule order, and an
// event's children (count + deltas) are a pure hash of (round, id) — so as
// long as both fire ids in the same order, the two id streams stay in
// lockstep. The delta mix deliberately covers same-bucket ties, exact bucket
// boundaries, the window edge, and the overflow list.

namespace wheelprop {

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

Duration delta_of(std::uint64_t round, std::uint64_t id, std::uint64_t k) {
  const std::uint64_t h = mix(round * 1'000'003 + id * 131 + k);
  switch (h % 8) {
    case 0: return 0;
    case 1: return static_cast<Duration>(mix(h) % 4);            // same bucket
    case 2: return static_cast<Duration>(mix(h) % 200);          // near buckets
    case 3: return static_cast<Duration>(mix(h) % 5000);
    case 4: return static_cast<Duration>(mix(h) % 300'000);      // window edge
    case 5: return static_cast<Duration>(mix(h) % 3'000'000);    // overflow
    case 6: return 128 * static_cast<Duration>(mix(h) % 3000);   // bucket boundary
    default: return static_cast<Duration>(mix(h) % 100'000'000);  // far future
  }
}

std::uint64_t fanout_of(std::uint64_t round, std::uint64_t id) {
  return mix(round * 7 + id * 31 + 5) % 3;  // 0..2 children per event
}

struct WheelSide {
  Engine eng;
  std::vector<std::uint64_t> fired;
  std::uint64_t next_id = 0;
  std::uint64_t round = 0;
  std::uint64_t budget = 0;  // stop expanding once this many ids allocated

  void schedule(Duration d) {
    const std::uint64_t id = next_id++;
    eng.after(d, [this, id]() { fire(id); });
  }
  void fire(std::uint64_t id) {
    fired.push_back(id);
    if (next_id >= budget) return;
    const std::uint64_t n = fanout_of(round, id);
    for (std::uint64_t k = 0; k < n; ++k) schedule(delta_of(round, id, k));
  }
};

/// Reference implementation: the old heap core's exact semantics, including
/// (t, seq) tie-break, the t < now clamp, and run_until's clock advance.
struct HeapSide {
  struct Ev {
    Time t;
    std::uint64_t seq;
    std::uint64_t id;
  };
  struct Cmp {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, Cmp> q;
  Time now = 0;
  std::uint64_t seq = 0;
  std::vector<std::uint64_t> fired;
  std::uint64_t next_id = 0;
  std::uint64_t round = 0;
  std::uint64_t budget = 0;

  void schedule(Duration d) {
    const Time t = now + d;
    q.push({t < now ? now : t, seq++, next_id++});
  }
  void fire(const Ev& e) {
    now = e.t;
    fired.push_back(e.id);
    if (next_id >= budget) return;
    const std::uint64_t n = fanout_of(round, e.id);
    for (std::uint64_t k = 0; k < n; ++k) schedule(delta_of(round, e.id, k));
  }
  void run_until(Time t) {
    while (!q.empty() && q.top().t <= t) {
      Ev e = q.top();
      q.pop();
      fire(e);
    }
    if (now < t) now = t;
  }
  void run() {
    while (!q.empty()) {
      Ev e = q.top();
      q.pop();
      fire(e);
    }
  }
};

}  // namespace wheelprop

TEST(CalendarQueueProperty, MatchesReferenceHeapOver1kSeededRounds) {
  using namespace wheelprop;
  for (std::uint64_t round = 0; round < 1000; ++round) {
    WheelSide wheel;
    HeapSide heap;
    wheel.round = heap.round = round;
    wheel.budget = heap.budget = 400;

    for (int i = 0; i < 40; ++i) {
      const Duration d = delta_of(round, 1'000'000 + i, 0);
      wheel.schedule(d);
      heap.schedule(d);
    }

    // Interleave run_until steps with roots scheduled from *outside* any
    // callback — now() sits wherever the previous step left it, possibly
    // mid-window after an early drain. This is the interleaving that
    // exposes cursor-placement bugs a pure run() sweep cannot.
    std::mt19937_64 driver(round ^ 0xabcdef);
    for (int s = 0; s < 6; ++s) {
      for (int j = 0; j < 3; ++j) {
        const Duration d = delta_of(round, 2'000'000 + s * 10 + j, 0);
        wheel.schedule(d);
        heap.schedule(d);
      }
      const Duration step = static_cast<Duration>(driver() % 2'000'000);
      wheel.eng.run_until(wheel.eng.now() + step);
      heap.run_until(heap.now + step);
      ASSERT_EQ(wheel.eng.pending_events(), heap.q.size())
          << "round " << round << " step " << s;
      ASSERT_EQ(wheel.eng.now(), heap.now) << "round " << round << " step " << s;
    }
    wheel.eng.run();
    heap.run();
    ASSERT_EQ(wheel.fired, heap.fired) << "firing order diverged in round " << round;
  }
}

TEST(CalendarQueueProperty, StopAndRerunResumesInOrder) {
  using namespace wheelprop;
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    e.after(100 * (i % 4), [&order, i]() { order.push_back(i); });
  }
  e.after(100, [&e]() { e.stop(); });
  e.run();
  EXPECT_TRUE(e.stopped());
  EXPECT_LT(order.size(), 8u);
  e.run();  // resume: remaining events fire in the same global order
  ASSERT_EQ(order.size(), 8u);
  EXPECT_EQ(order, (std::vector<int>{0, 4, 1, 5, 2, 6, 3, 7}));
}

// Regression: run_until that drains early must leave the dispatch cursor at
// the last *popped* position, not parked on the next (future) bucket. If the
// cursor moves on a peek, events scheduled afterwards — at t >= now() but
// before that future bucket, e.g. exactly one 128 ns bucket ahead — land
// "behind" the cursor, where the wrapped bitmap scan misorders or skips
// them. Seen in the wild as a mailbox request vanishing between poll rounds.
TEST(Engine, ScheduleAfterEarlyDrainAtBucketBoundaryKeepsOrder) {
  Engine e;
  std::vector<int> order;
  // One far event parks in a future bucket; run_until(t) with t well before
  // it drains nothing but advances now() to t.
  e.after(10'000, [&order]() { order.push_back(99); });
  EXPECT_EQ(e.run_until(1'000), 0u);
  EXPECT_EQ(e.now(), 1'000);
  // Schedule between now() and the far event, straddling bucket boundaries
  // of the 128 ns wheel (1024 and 1152 are exact boundaries; 1100 is not).
  e.after(24, [&order]() { order.push_back(0); });    // t=1024, boundary
  e.after(100, [&order]() { order.push_back(1); });   // t=1100
  e.after(152, [&order]() { order.push_back(2); });   // t=1152, boundary
  e.after(0, [&order]() { order.push_back(3); });     // t=1000, same slot as now
  e.run();
  EXPECT_EQ(order, (std::vector<int>{3, 0, 1, 2, 99}));
  EXPECT_EQ(e.now(), 10'000);
}

// --- at_born / PollGrid --------------------------------------------------------

TEST(Engine, AtBornFilesAmongEarlierScheduledEvents) {
  Engine e;
  std::vector<int> order;
  // Three events at t=1000, scheduled at times 0, 100 and 200 by events
  // scheduled at 0.
  e.at(1000, [&] { order.push_back(0); });
  e.at(100, [&] { e.at(1000, [&] { order.push_back(100); }); });
  e.at(200, [&] { e.at(1000, [&] { order.push_back(200); }); });
  e.at(300, [&] {
    // Between the ones scheduled at 100 and 200; an equal key goes after.
    e.at_born(1000, 150, 0, [&] { order.push_back(150); });
    e.at_born(1000, 100, -1, [&] { order.push_back(-100); });
    e.at_born(1000, 100, 0, [&] { order.push_back(101); });
    e.at_born(1000, 100, 0, [&] { order.push_back(102); });
    EXPECT_EQ(e.current_born(), 0);
    EXPECT_EQ(e.current_sched_by(), 0);
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, -100, 100, 101, 102, 150, 200}));
  EXPECT_EQ(e.current_born(), e.now()) << "outside dispatch";
}

// A poller that sleeps on a PollGrid must observe every change at the same
// instant, and in the same order relative to the landing events, as a
// poller that really polls every interval — and count the same rounds.
// Both run on one engine over the same memory (a count of landed writes).
// Writes land after random leads, on and off ticks, issued by events
// scheduled at chosen times: long before, exactly one interval before the
// issue tick, one nanosecond before, and at the issue instant.
struct PollRecord {
  std::vector<std::pair<Time, int>> seen;  ///< (round time, landed count) on change
  std::uint64_t rounds = 0;
};

Task spinning_poller(Engine& e, const int& landed, const bool& stop, Duration interval,
                     PollRecord& rec) {
  int last = 0;
  for (;;) {
    if (stop) co_return;
    if (landed != last) rec.seen.emplace_back(e.now(), last = landed);
    ++rec.rounds;
    co_await delay(e, interval);
  }
}

Task sleeping_poller(Engine& e, const int& landed, const bool& stop, PollGrid& grid,
                     PollRecord& rec) {
  int last = 0;
  for (;;) {
    if (stop) co_return;
    if (landed != last) rec.seen.emplace_back(e.now(), last = landed);
    ++rec.rounds;
    const std::uint64_t skipped = co_await grid.next(false);
    if (stop) co_return;
    rec.rounds += skipped;
  }
}

void run_poll_grid_round(std::uint64_t seed, bool lead) {
  constexpr Duration kInterval = 150;
  constexpr Time kEnd = 400 * kInterval;
  std::mt19937_64 rng(seed);
  Engine e;
  PollGrid grid(e, kInterval, lead);
  int landed = 0;
  bool stop = false;
  PollRecord spin;
  PollRecord sleep;

  auto pick = [&](std::initializer_list<Duration> v) {
    return *(v.begin() + static_cast<std::ptrdiff_t>(rng() % v.size()));
  };
  // One write issued at `t` by an event scheduled at `born`.
  auto issue_at = [&](Time t, Time born) {
    const Duration special = lead ? pick({kInterval + 1, 2 * kInterval, 3 * kInterval})
                                  : pick({1, kInterval - 1, kInterval, 2 * kInterval});
    const Duration lat = rng() % 2 ? special
                                   : (lead ? kInterval + 1 : 1) +
                                         static_cast<Duration>(rng() % (2 * kInterval));
    const bool poke = !lead && rng() % 8 == 0;
    auto issue = [&, t, lat, poke]() {
      if (poke) {  // a backdoor write applies at once
        ++landed;
        grid.changed();
        return;
      }
      e.at(t + lat, [&]() {
        ++landed;
        grid.write_landed();
      });
      grid.write_issued(t + lat);
    };
    e.at(born, [&e, t, issue]() { e.at(t, issue); });
  };
  for (int i = 0; i < 120; ++i) {
    // From the fourth tick on: before that, writes would be scheduled by
    // the test body at time 0, on a par with the pollers' first rounds.
    Time t = 4 * kInterval + static_cast<Time>(rng() % (kEnd - 8 * kInterval));
    if (rng() % 2) t -= t % kInterval;  // on a tick
    switch (rng() % 4) {
      case 0: issue_at(t, 0); break;
      case 1: issue_at(t, std::max<Time>(0, t - kInterval)); break;
      case 2: issue_at(t, std::max<Time>(0, t - 1)); break;
      default: issue_at(t, t); break;
    }
  }
  e.at(kEnd, [&]() {
    stop = true;
    sleep.rounds += grid.halt();
  });
  spinning_poller(e, landed, stop, kInterval, spin);
  sleeping_poller(e, landed, stop, grid, sleep);
  e.run();
  std::size_t first_diff = 0;
  while (first_diff < spin.seen.size() && first_diff < sleep.seen.size() &&
         spin.seen[first_diff] == sleep.seen[first_diff]) {
    ++first_diff;
  }
  ASSERT_EQ(first_diff, spin.seen.size())
      << "seed " << seed << (lead ? " lead" : " no lead") << ": spinning poller saw "
      << (first_diff < spin.seen.size() ? spin.seen[first_diff].second : -1) << " at "
      << (first_diff < spin.seen.size() ? spin.seen[first_diff].first : -1) << ", sleeping "
      << (first_diff < sleep.seen.size() ? sleep.seen[first_diff].second : -1) << " at "
      << (first_diff < sleep.seen.size() ? sleep.seen[first_diff].first : -1);
  ASSERT_EQ(spin.seen.size(), sleep.seen.size()) << "seed " << seed;
  ASSERT_EQ(spin.rounds, sleep.rounds) << "seed " << seed << (lead ? " lead" : " no lead");
}

TEST(PollGridProperty, SleepingPollerMatchesSpinningPollerOver1000SeededRounds) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    run_poll_grid_round(seed, /*lead=*/true);
    run_poll_grid_round(seed, /*lead=*/false);
  }
}

// The mailbox case spelled out: a request issued exactly on a tick, one
// interval before the tick it lands on. Issued by an event scheduled long
// before, it lands before that tick's round and is seen there; issued by
// an event scheduled after the round at the issue tick was, it is seen one
// round later.
TEST(PollGrid, LandingOnATickIssuedOneIntervalBefore) {
  constexpr Duration kInterval = 2000;
  for (const bool late_issuer : {false, true}) {
    Engine e;
    PollGrid grid(e, kInterval, /*landings_lead=*/false);
    int landed = 0;
    bool stop = false;
    PollRecord rec;
    const Time issue = 10 * kInterval;
    const Time born = late_issuer ? issue - 1 : 0;
    e.at(born, [&]() {
      e.at(issue, [&]() {
        e.at(issue + kInterval, [&]() {
          ++landed;
          grid.write_landed();
        });
        grid.write_issued(issue + kInterval);
      });
    });
    e.at(20 * kInterval, [&]() {
      stop = true;
      rec.rounds += grid.halt();
    });
    sleeping_poller(e, landed, stop, grid, rec);
    e.run();
    const Time seen_at = late_issuer ? issue + 2 * kInterval : issue + kInterval;
    EXPECT_EQ(rec.seen, (std::vector<std::pair<Time, int>>{{seen_at, 1}})) << late_issuer;
    EXPECT_EQ(rec.rounds, 20u) << "rounds at ticks 0 .. 19 intervals";
    EXPECT_LT(e.events_processed(), 12u) << "the idle rounds were not simulated";
  }
}

}  // namespace
}  // namespace nvmeshare::sim
