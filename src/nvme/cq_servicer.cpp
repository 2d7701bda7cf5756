#include "nvme/cq_servicer.hpp"

#include <array>

namespace nvmeshare::nvme {

CqServicer::CqServicer(fabric::Substrate& fabric, CqOwner& owner,
                       std::span<const std::unique_ptr<QueuePair>> qps, sim::Duration interval,
                       bool landings_lead, obs::Counter* rounds)
    : fabric_(fabric),
      owner_(owner),
      qps_(qps),
      rounds_(rounds),
      grid_(fabric.engine(), interval, landings_lead) {}

CqServicer::~CqServicer() {
  halt();
  unwatch();
}

void CqServicer::start(fabric::HostId space, std::uint64_t addr, std::uint64_t len,
                       std::shared_ptr<bool> stop) {
  fabric_.watch(space, addr, len, grid_);
  stop_ = stop;
  run(std::move(stop));
}

void CqServicer::reap() {
  std::array<CompletionEntry, 32> cqes;
  for (std::uint32_t q = 0; q < qps_.size(); ++q) {
    bool delivered = false;
    for (;;) {
      const std::size_t n = qps_[q]->reap(cqes);
      for (std::size_t i = 0; i < n; ++i) owner_.cq_entry(q, cqes[i]);
      if (n > 0) delivered = true;
      if (n < cqes.size()) break;
    }
    if (delivered && owner_.cq_may_ring()) (void)qps_[q]->ring_cq_doorbell();
  }
}

void CqServicer::halt() {
  if (stop_) *stop_ = true;
  const std::uint64_t slept = grid_.halt();
  if (rounds_ != nullptr) *rounds_ += slept;
}

sim::Task CqServicer::run(std::shared_ptr<bool> stop) {
  for (;;) {
    if (*stop) co_return;
    if (owner_.cq_idle()) {
      // A real poller would spin, but the poll cadence only matters while
      // a completion is pending: sleep until the next submission.
      co_await grid_.idle();
      continue;
    }
    reap();
    if (rounds_ != nullptr) ++*rounds_;
    // An idle owner must be noticed by the very next round.
    const std::uint64_t skipped = co_await grid_.next(owner_.cq_idle());
    if (*stop) co_return;
    if (rounds_ != nullptr) *rounds_ += skipped;
  }
}

}  // namespace nvmeshare::nvme
