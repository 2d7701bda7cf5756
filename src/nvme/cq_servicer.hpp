// One completion loop for every I/O-queue poller: the client, the polled
// local driver and the NVMe-oF target. A round reaps each queue pair in
// batches of 32, hands each entry to the owner and rings the head doorbell
// of each queue that delivered. Rounds sit on a sim::PollGrid over the CQ
// memory, so the ones that cannot see a new entry are counted, not run
// (MODEL.md §8). The interrupt-driven local driver calls reap() instead.
#pragma once

#include <memory>
#include <span>

#include "nvme/queue.hpp"
#include "sim/poll_grid.hpp"
#include "sim/task.hpp"

namespace nvmeshare::nvme {

class CqOwner {
 public:
  /// Asked before and after each round: is nothing in flight? Then the
  /// poller sleeps until kick(). Before a round the owner may first handle
  /// other completions the round polls (the target's RDMA CQ).
  virtual bool cq_idle() = 0;
  virtual void cq_entry(std::uint32_t q, const CompletionEntry& cqe) = 0;
  /// False once the queues may be deleted under the poller (a detach).
  virtual bool cq_may_ring() { return true; }

 protected:
  ~CqOwner() = default;
};

class CqServicer {
 public:
  /// The owner may replace entries of `qps` in place. `rounds` (may be
  /// null) counts every round, run or skipped.
  CqServicer(fabric::Substrate& fabric, CqOwner& owner,
             std::span<const std::unique_ptr<QueuePair>> qps, sim::Duration interval,
             bool landings_lead, obs::Counter* rounds = nullptr);
  ~CqServicer();
  CqServicer(const CqServicer&) = delete;
  CqServicer& operator=(const CqServicer&) = delete;

  /// Watch the CQ memory [addr, addr + len) of `space`; poll until `*stop`.
  void start(fabric::HostId space, std::uint64_t addr, std::uint64_t len,
             std::shared_ptr<bool> stop);
  void reap();
  void kick() { grid_.kick(); }
  void changed() { grid_.changed(); }
  /// Set the stop flag and let a sleeping poller exit, counting its rounds.
  void halt();
  void unwatch() { fabric_.unwatch(grid_); }
  [[nodiscard]] sim::PollGrid& grid() noexcept { return grid_; }
  [[nodiscard]] const sim::PollGrid& grid() const noexcept { return grid_; }

 private:
  sim::Task run(std::shared_ptr<bool> stop);

  fabric::Substrate& fabric_;
  CqOwner& owner_;
  std::span<const std::unique_ptr<QueuePair>> qps_;
  obs::Counter* rounds_;
  sim::PollGrid grid_;
  std::shared_ptr<bool> stop_;
};

}  // namespace nvmeshare::nvme
