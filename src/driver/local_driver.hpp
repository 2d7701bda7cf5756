// Stock-Linux-style local NVMe driver: the paper's local baseline.
//
// Runs on the host the device is installed in, brings the controller up
// directly (BareController), uses one or more I/O queue pairs in local DRAM
// (one per channel, sharing a single MSI-X vector), DMAs straight into
// request buffers (no bounce buffer), and completes requests from MSI-X
// interrupts — a mature, lean submission path with interrupt-driven
// completion, exactly what Figure 9a's "stock Linux driver" scenario uses.
// With use_interrupts off it polls its CQs instead (nvme::CqServicer).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "block/block.hpp"
#include "block/io_engine.hpp"
#include "driver/bringup.hpp"
#include "driver/cost_model.hpp"
#include "driver/irq.hpp"
#include "nvme/cq_servicer.hpp"
#include "nvme/queue.hpp"
#include "obs/metrics.hpp"

namespace nvmeshare::driver {

class LocalDriver final : public block::BlockDevice,
                          private block::IoTransport,
                          private nvme::CqOwner {
 public:
  struct Config {
    std::uint16_t queue_entries = 256;  ///< SQ/CQ entries per channel
    std::uint32_t queue_depth = 128;    ///< concurrent requests per channel
    /// I/O channels (queue pairs); all share one MSI-X vector.
    std::uint32_t channels = 1;
    block::IoEngine::Scheduler scheduler = block::IoEngine::Scheduler::round_robin;
    /// Ring each SQ doorbell once per submission burst (off = seed stream).
    bool coalesce_doorbells = false;
    CostModel costs = CostModel::stock_linux();
    /// false = poll the CQ instead of using MSI-X (SPDK-style usage).
    bool use_interrupts = true;
    std::uint64_t seed = 0x10ca1;
  };

  /// Bring up the controller and the I/O queue pairs. `irq` may be null
  /// when use_interrupts is false.
  static sim::Future<Result<std::unique_ptr<LocalDriver>>> start(sisci::Cluster& cluster,
                                                                 pcie::EndpointId endpoint,
                                                                 IrqController* irq,
                                                                 Config cfg);

  ~LocalDriver() override;
  LocalDriver(const LocalDriver&) = delete;
  LocalDriver& operator=(const LocalDriver&) = delete;

  // --- block::BlockDevice ------------------------------------------------------
  [[nodiscard]] std::string_view name() const override { return "nvme-local"; }
  [[nodiscard]] std::uint32_t block_size() const override { return ctrl_->block_size(); }
  [[nodiscard]] std::uint64_t capacity_blocks() const override {
    return ctrl_->capacity_blocks();
  }
  [[nodiscard]] std::uint32_t max_queue_depth() const override {
    return cfg_.queue_depth * cfg_.channels;
  }
  [[nodiscard]] std::uint64_t max_transfer_bytes() const override {
    return ctrl_->max_transfer_bytes();
  }
  sim::Future<block::Completion> submit(const block::Request& request) override;

  [[nodiscard]] BareController& controller() noexcept { return *ctrl_; }
  /// The shared submission core (per-channel inflight/doorbell metrics).
  [[nodiscard]] const block::IoEngine& io_engine() const noexcept { return *engine_io_; }
  /// The CQ poller's grid (null with interrupts on).
  [[nodiscard]] const sim::PollGrid* cq_poll_grid() const noexcept {
    return cfg_.use_interrupts ? nullptr : &cq_->grid();
  }

  /// Per-driver counters, also registered as `nvmeshare.local_driver.*`.
  struct Stats {
    Stats();
    obs::Counter reads;
    obs::Counter writes;
    obs::Counter flushes;
    obs::Counter errors;
    obs::Counter interrupts;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  LocalDriver(sisci::Cluster& cluster, Config cfg);

  static sim::Task init_task(std::unique_ptr<LocalDriver> self, pcie::EndpointId endpoint,
                             IrqController* irq,
                             sim::Promise<Result<std::unique_ptr<LocalDriver>>> promise);
  sim::Task io_task(block::Request request, sim::Promise<block::Completion> promise);
  /// The MSI-X handler: reap on every interrupt.
  sim::Task interrupt_loop(std::shared_ptr<bool> stop);

  // --- block::IoTransport (the local queue-pair personality) ---------------
  Result<std::uint16_t> issue(std::uint32_t chan, void* cookie) override;
  Status ring(std::uint32_t chan) override;
  [[nodiscard]] bool retryable(std::uint16_t status) const override;
  void start_recovery(std::uint32_t chan) override;
  [[nodiscard]] std::uint16_t trace_qid(std::uint32_t chan) const override;

  // --- nvme::CqOwner -----------------------------------------------------------
  /// Never idle: the polled driver keeps its grid while nothing is in flight.
  bool cq_idle() override { return false; }
  void cq_entry(std::uint32_t chan, const nvme::CompletionEntry& cqe) override;

  sisci::Cluster& cluster_;
  Config cfg_;
  Rng rng_;
  std::unique_ptr<BareController> ctrl_;
  IrqController* irq_ = nullptr;
  std::uint32_t irq_vector_ = 0;
  bool irq_vector_allocated_ = false;

  std::uint64_t sq_addr_ = 0;  ///< channel c's SQ at sq_addr_ + c * ring bytes
  std::uint64_t cq_addr_ = 0;
  std::uint64_t prp_pages_addr_ = 0;  ///< total_depth PRP-list pages
  std::vector<std::uint16_t> qids_;
  std::vector<std::unique_ptr<nvme::QueuePair>> qps_;
  std::unique_ptr<block::IoEngine> engine_io_;

  std::unique_ptr<sim::Event> irq_event_;
  std::shared_ptr<bool> stop_ = std::make_shared<bool>(false);
  Stats stats_;
  /// Reaps the CQs: polling on its own, or for the interrupt handler.
  std::optional<nvme::CqServicer> cq_;
};

}  // namespace nvmeshare::driver
