#include "driver/bringup.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace nvmeshare::driver {

using nvme::CompletionEntry;
using nvme::SubmissionEntry;

namespace {
constexpr sim::Duration kRegPollNs = 1000;
constexpr int kRegPollLimit = 1000;
constexpr sim::Duration kAdminTimeoutNs = 50_ms;
}  // namespace

BareController::BareController(sisci::Cluster& cluster, pcie::EndpointId endpoint, Config cfg)
    : cluster_(cluster), endpoint_(endpoint), cfg_(cfg) {}

BareController::~BareController() {
  if (asq_addr_ != 0) (void)cluster_.free_dram(host_, asq_addr_);
  if (acq_addr_ != 0) (void)cluster_.free_dram(host_, acq_addr_);
  if (admin_data_addr_ != 0) (void)cluster_.free_dram(host_, admin_data_addr_);
}

sim::Future<Result<std::unique_ptr<BareController>>> BareController::init(
    sisci::Cluster& cluster, pcie::EndpointId endpoint, Config cfg) {
  sim::Promise<Result<std::unique_ptr<BareController>>> promise(cluster.engine());
  auto self = std::unique_ptr<BareController>(new BareController(cluster, endpoint, cfg));
  init_task(std::move(self), promise);
  return promise.future();
}

sim::Task BareController::init_task(std::unique_ptr<BareController> self,
                                    sim::Promise<Result<std::unique_ptr<BareController>>> promise) {
  BareController& m = *self;
  fabric::Substrate& fabric = m.cluster_.fabric();
  sim::Engine& engine = fabric.engine();

  m.host_ = fabric.endpoint_host(m.endpoint_);
  const pcie::Initiator cpu = fabric.cpu(m.host_);
  auto bar = fabric.bar_address(m.endpoint_, 0);
  if (!bar) {
    promise.set(bar.status());
    co_return;
  }
  m.bar_base_ = *bar;

  auto write_reg32 = [&](std::uint64_t off, std::uint32_t v) {
    Bytes b(4);
    store_pod(b, v);
    return fabric.post_write(cpu, m.bar_base_ + off, std::move(b)).status();
  };
  auto write_reg64 = [&](std::uint64_t off, std::uint64_t v) {
    Bytes b(8);
    store_pod(b, v);
    return fabric.post_write(cpu, m.bar_base_ + off, std::move(b)).status();
  };

  // Reset: clear CC.EN, wait for CSTS.RDY to drop.
  if (Status st = write_reg32(nvme::reg::kCc, 0); !st) {
    promise.set(st);
    co_return;
  }
  for (int i = 0;; ++i) {
    auto csts = co_await fabric.read(cpu, m.bar_base_ + nvme::reg::kCsts, 4);
    if (!csts) {
      promise.set(csts.status());
      co_return;
    }
    if ((load_pod<std::uint32_t>(*csts) & nvme::kCstsReady) == 0) break;
    if (i >= kRegPollLimit) {
      promise.set(Status(Errc::timed_out, "controller did not leave ready state"));
      co_return;
    }
    co_await sim::delay(engine, kRegPollNs);
  }

  // Admin queues + a page for identify payloads, all in local DRAM.
  const std::uint16_t entries = m.cfg_.admin_entries;
  auto asq = m.cluster_.alloc_dram(m.host_, entries * 64ull, 4096);
  auto acq = m.cluster_.alloc_dram(m.host_, entries * 16ull, 4096);
  auto buf = m.cluster_.alloc_dram(m.host_, 4096, 4096);
  if (!asq || !acq || !buf) {
    promise.set(Status(Errc::resource_exhausted, "no DRAM for admin queues"));
    co_return;
  }
  m.asq_addr_ = *asq;
  m.acq_addr_ = *acq;
  m.admin_data_addr_ = *buf;
  // Zero the queue memory (stale phase bits would alias as completions).
  mem::PhysMem& dram0 = fabric.host_dram(m.host_);
  (void)dram0.write(m.asq_addr_, Bytes(entries * 64ull, std::byte{0}));
  (void)dram0.write(m.acq_addr_, Bytes(entries * 16ull, std::byte{0}));

  const std::uint32_t aqa = static_cast<std::uint32_t>(entries - 1) |
                            (static_cast<std::uint32_t>(entries - 1) << 16);
  if (Status st = write_reg32(nvme::reg::kAqa, aqa); !st) {
    promise.set(st);
    co_return;
  }
  (void)write_reg64(nvme::reg::kAsq, m.asq_addr_);
  (void)write_reg64(nvme::reg::kAcq, m.acq_addr_);
  (void)write_reg32(nvme::reg::kCc, nvme::kCcEnable);

  for (int i = 0;; ++i) {
    auto csts = co_await fabric.read(cpu, m.bar_base_ + nvme::reg::kCsts, 4);
    if (!csts) {
      promise.set(csts.status());
      co_return;
    }
    const auto v = load_pod<std::uint32_t>(*csts);
    if ((v & nvme::kCstsFatal) != 0) {
      promise.set(Status(Errc::unavailable, "controller reported fatal status on enable"));
      co_return;
    }
    if ((v & nvme::kCstsReady) != 0) break;
    if (i >= kRegPollLimit) {
      promise.set(Status(Errc::timed_out, "controller did not become ready"));
      co_return;
    }
    co_await sim::delay(engine, kRegPollNs);
  }

  nvme::QueuePair::Config qc;
  qc.qid = 0;
  qc.sq_size = entries;
  qc.cq_size = entries;
  qc.sq_write_addr = m.asq_addr_;
  qc.cq_poll_addr = m.acq_addr_;
  qc.sq_doorbell_addr = m.sq_doorbell(0);
  qc.cq_doorbell_addr = m.cq_doorbell(0);
  qc.cpu = cpu;
  m.admin_qp_ = std::make_unique<nvme::QueuePair>(fabric, qc);
  m.admin_lock_ = std::make_unique<sim::Semaphore>(engine, 1);

  // Identify controller.
  auto ident = co_await m.submit_admin(
      nvme::make_identify(0, nvme::IdentifyCns::controller, 0, m.admin_data_addr_));
  if (!ident || !ident->ok()) {
    promise.set(ident ? Status(Errc::io_error, "identify controller failed")
                      : ident.status());
    co_return;
  }
  Bytes payload(4096);
  (void)fabric.peek(m.host_, m.admin_data_addr_, payload);
  const auto ctrl = nvme::parse_identify_controller(payload);
  m.mdts_bytes_ = static_cast<std::uint32_t>((1u << ctrl.mdts_pages_log2) * nvme::kPageSize);

  // Identify namespace 1.
  auto ns = co_await m.submit_admin(
      nvme::make_identify(0, nvme::IdentifyCns::ns, 1, m.admin_data_addr_));
  if (!ns || !ns->ok()) {
    promise.set(ns ? Status(Errc::io_error, "identify namespace failed") : ns.status());
    co_return;
  }
  (void)fabric.peek(m.host_, m.admin_data_addr_, payload);
  const auto nsinfo = nvme::parse_identify_namespace(payload);
  m.capacity_blocks_ = nsinfo.size_blocks;
  m.block_size_ = nsinfo.block_size;

  // Negotiate the number of I/O queues.
  auto feat = co_await m.submit_admin(
      nvme::make_set_num_queues(0, m.cfg_.requested_io_queues, m.cfg_.requested_io_queues));
  if (!feat || !feat->ok()) {
    promise.set(feat ? Status(Errc::io_error, "set number of queues failed") : feat.status());
    co_return;
  }
  const std::uint16_t nsqa = static_cast<std::uint16_t>((feat->dw0 & 0xFFFF) + 1);
  const std::uint16_t ncqa = static_cast<std::uint16_t>((feat->dw0 >> 16) + 1);
  m.granted_io_queues_ = std::min(nsqa, ncqa);

  NVS_LOG(info, "bringup") << "controller up: " << m.capacity_blocks_ << " blocks of "
                           << m.block_size_ << "B, " << m.granted_io_queues_ << " IO queues";
  promise.set(std::move(self));
}

sim::Future<Result<CompletionEntry>> BareController::submit_admin(SubmissionEntry entry) {
  sim::Promise<Result<CompletionEntry>> promise(cluster_.engine());
  admin_command(cluster_.engine(), cfg_.costs, admin_qp_, admin_lock_, entry, {}, promise);
  return promise.future();
}

sim::Task admin_command(sim::Engine& engine, const CostModel& costs,
                        std::unique_ptr<nvme::QueuePair>& qp, std::unique_ptr<sim::Semaphore>& lock,
                        SubmissionEntry entry, std::function<void()> journal,
                        sim::Promise<Result<CompletionEntry>> promise) {
  co_await lock->acquire();
  auto cid = qp->push(entry);
  if (!cid) {
    lock->release();
    promise.set(cid.status());
    co_return;
  }
  if (journal) journal();
  co_await sim::delay(engine, costs.doorbell_ns);
  (void)qp->ring_sq_doorbell();

  const sim::Time deadline = engine.now() + kAdminTimeoutNs;
  for (;;) {
    if (auto cqe = qp->poll()) {
      (void)qp->ring_cq_doorbell();
      if (journal) journal();
      lock->release();
      promise.set(*cqe);  // NVMe-level failures are reported via cqe->status()
      co_return;
    }
    if (engine.now() >= deadline) {
      lock->release();
      promise.set(Status(Errc::timed_out, "admin command timed out"));
      co_return;
    }
    co_await sim::delay(engine, std::max<sim::Duration>(costs.poll_interval_ns, 200));
  }
}

sim::Future<Result<std::uint16_t>> BareController::create_queue_pair(
    std::uint64_t sq_addr, std::uint16_t sq_size, std::uint64_t cq_addr, std::uint16_t cq_size,
    std::optional<std::uint16_t> irq_vector) {
  sim::Promise<Result<std::uint16_t>> promise(cluster_.engine());
  create_qp_task(sq_addr, sq_size, cq_addr, cq_size, irq_vector, promise);
  return promise.future();
}

sim::Task BareController::create_qp_task(std::uint64_t sq_addr, std::uint16_t sq_size,
                                         std::uint64_t cq_addr, std::uint16_t cq_size,
                                         std::optional<std::uint16_t> irq_vector,
                                         sim::Promise<Result<std::uint16_t>> promise) {
  if (next_qid_ > granted_io_queues_) {
    promise.set(Status(Errc::resource_exhausted, "no I/O queue ids left"));
    co_return;
  }
  const std::uint16_t qid = next_qid_++;
  auto cq = co_await submit_admin(nvme::make_create_io_cq(
      0, qid, cq_size, cq_addr, irq_vector.has_value(), irq_vector.value_or(0)));
  if (!cq || !cq->ok()) {
    --next_qid_;
    promise.set(cq ? Status(Errc::io_error, std::string("create CQ failed: ") +
                                                nvme::status_name(cq->status()))
                   : cq.status());
    co_return;
  }
  auto sq = co_await submit_admin(nvme::make_create_io_sq(0, qid, sq_size, sq_addr, qid));
  if (!sq || !sq->ok()) {
    (void)co_await submit_admin(nvme::make_delete_io_cq(0, qid));
    --next_qid_;
    promise.set(sq ? Status(Errc::io_error, std::string("create SQ failed: ") +
                                                nvme::status_name(sq->status()))
                   : sq.status());
    co_return;
  }
  promise.set(qid);
}

sim::Future<Result<std::uint16_t>> BareController::delete_queue_pair(std::uint16_t qid) {
  sim::Promise<Result<std::uint16_t>> promise(cluster_.engine());
  delete_qp_task(qid, promise);
  return promise.future();
}

sim::Task BareController::delete_qp_task(std::uint16_t qid,
                                         sim::Promise<Result<std::uint16_t>> promise) {
  auto sq = co_await submit_admin(nvme::make_delete_io_sq(0, qid));
  if (!sq || !sq->ok()) {
    promise.set(sq ? Status(Errc::io_error, "delete SQ failed") : sq.status());
    co_return;
  }
  auto cq = co_await submit_admin(nvme::make_delete_io_cq(0, qid));
  if (!cq || !cq->ok()) {
    promise.set(cq ? Status(Errc::io_error, "delete CQ failed") : cq.status());
    co_return;
  }
  promise.set(qid);
}

Status BareController::program_msix(std::uint16_t vector, std::uint64_t addr,
                                    std::uint32_t data) {
  fabric::Substrate& fabric = cluster_.fabric();
  Bytes entry(16);
  store_pod(entry, addr, 0);
  store_pod(entry, data, 8);
  store_pod(entry, std::uint32_t{0} /* unmasked */, 12);
  return fabric
      .post_write(fabric.cpu(host_),
                  bar_base_ + nvme::reg::kMsixTable + vector * nvme::reg::kMsixEntrySize,
                  std::move(entry))
      .status();
}

}  // namespace nvmeshare::driver
