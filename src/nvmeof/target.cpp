#include "nvmeof/target.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "integrity/integrity.hpp"
#include "obs/trace.hpp"

namespace nvmeshare::nvmeof {

using nvme::CompletionEntry;
using nvme::SubmissionEntry;

namespace {
// wr_id tags: kind in the top byte, slot index below.
constexpr std::uint64_t kWrRecv = 1ull << 56;
constexpr std::uint64_t kWrRdmaRead = 2ull << 56;
constexpr std::uint64_t kWrRdmaWrite = 3ull << 56;
constexpr std::uint64_t kWrSend = 4ull << 56;
constexpr std::uint64_t kWrSlotMask = (1ull << 56) - 1;

/// Attribute a target-side span to the initiator request that sent the
/// capsule, via the tracer binding the initiator made under its fabric
/// pseudo-qid (see nvmeof_trace_qid in capsule.hpp).
void trace_target_span(std::uint16_t qid, std::uint16_t cid, obs::Phase phase, sim::Time begin,
                       sim::Time end) {
  obs::Tracer& tracer = obs::Tracer::global();
  if (!tracer.enabled()) return;
  if (const std::uint64_t trace = tracer.lookup(qid, cid); trace != 0) {
    tracer.record(trace, obs::Track::target, phase, begin, end, qid, cid);
  }
}
}  // namespace

Target::Stats::Stats()
    : commands("nvmeshare.nvmeof_target.commands"),
      reads("nvmeshare.nvmeof_target.reads"),
      writes("nvmeshare.nvmeof_target.writes"),
      errors("nvmeshare.nvmeof_target.errors") {}

Target::Target(sisci::Cluster& cluster, rdma::Network& network, Config cfg)
    : cluster_(cluster), network_(network), cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.hardware_offload) {
    // NIC-firmware capsule handling: tiny fixed pipeline costs instead of
    // the host software path; the network and NVMe costs are untouched,
    // which is why offloading barely moves end-to-end latency.
    cfg_.costs.submit_ns = 150;
    cfg_.costs.completion_ns = 100;
    cfg_.costs.poll_interval_ns = 100;
    cfg_.costs.jitter_sigma = 0.01;
  }
}

Target::~Target() { *stop_ = true; }

std::uint64_t Target::slot_bytes() const { return ctrl_->max_transfer_bytes(); }

sim::Future<Result<std::unique_ptr<Target>>> Target::start(sisci::Cluster& cluster,
                                                           pcie::EndpointId endpoint,
                                                           rdma::Network& network, Config cfg) {
  sim::Promise<Result<std::unique_ptr<Target>>> promise(cluster.engine());
  auto self = std::unique_ptr<Target>(new Target(cluster, network, cfg));
  start_task(std::move(self), endpoint, promise);
  return promise.future();
}

sim::Task Target::start_task(std::unique_ptr<Target> self, pcie::EndpointId endpoint,
                             sim::Promise<Result<std::unique_ptr<Target>>> promise) {
  Target& t = *self;
  driver::BareController::Config bc;
  bc.costs = t.cfg_.costs;
  auto ctrl = co_await driver::BareController::init(t.cluster_, endpoint, bc);
  if (!ctrl) {
    promise.set(ctrl.status());
    co_return;
  }
  t.ctrl_ = std::move(*ctrl);
  t.ctx_ = std::make_unique<rdma::Context>(t.network_, t.ctrl_->host());
  NVS_LOG(info, "nvmeof") << "target up on host " << t.ctrl_->host();
  promise.set(std::move(self));
}

sim::Future<Result<rdma::QueuePair*>> Target::accept(rdma::Context& initiator_ctx,
                                                     rdma::CompletionQueue& initiator_cq) {
  sim::Promise<Result<rdma::QueuePair*>> promise(cluster_.engine());
  accept_task(&initiator_ctx, &initiator_cq, promise);
  return promise.future();
}

sim::Task Target::accept_task(rdma::Context* initiator_ctx,
                              rdma::CompletionQueue* initiator_cq,
                              sim::Promise<Result<rdma::QueuePair*>> promise) {
  auto conn = std::make_unique<Connection>(*this);
  sim::Engine& engine = cluster_.engine();
  const pcie::HostId host = ctrl_->host();
  const std::uint32_t slots = cfg_.command_slots;
  const std::uint64_t sb = slot_bytes();

  conn->cq = std::make_unique<rdma::CompletionQueue>(engine);
  auto [qp_target, qp_initiator] = network_.create_qp_pair(*ctx_, *conn->cq, *initiator_ctx,
                                                           *initiator_cq);
  conn->qp = qp_target;

  auto recv = cluster_.alloc_dram(host, slots * kCapsuleSlotBytes, 4096);
  auto resp = cluster_.alloc_dram(host, slots * sizeof(ResponseCapsule), 4096);
  auto staging = cluster_.alloc_dram(host, slots * sb, 4096);
  auto prp = cluster_.alloc_dram(host, slots * nvme::kPageSize, 4096);
  auto sq = cluster_.alloc_dram(host, cfg_.queue_entries * 64ull, 4096);
  auto cq = cluster_.alloc_dram(host, cfg_.queue_entries * 16ull, 4096);
  if (!recv || !resp || !staging || !prp || !sq || !cq) {
    promise.set(Status(Errc::resource_exhausted, "target: no DRAM for connection"));
    co_return;
  }
  conn->recv_base = *recv;
  conn->resp_base = *resp;
  conn->staging_base = *staging;
  conn->prp_base = *prp;
  conn->sq_addr = *sq;
  conn->cq_addr = *cq;
  // Zero queue memory: stale phase bits would alias as completions.
  {
    mem::PhysMem& d = cluster_.fabric().host_dram(host);
    (void)d.write(conn->sq_addr, Bytes(cfg_.queue_entries * 64ull, std::byte{0}));
    (void)d.write(conn->cq_addr, Bytes(cfg_.queue_entries * 16ull, std::byte{0}));
  }

  (void)ctx_->register_mr(conn->recv_base, slots * kCapsuleSlotBytes);
  (void)ctx_->register_mr(conn->resp_base, slots * sizeof(ResponseCapsule));
  (void)ctx_->register_mr(conn->staging_base, slots * sb);

  // Staging slots never move: prewrite one PRP list per slot.
  mem::PhysMem& dram = cluster_.fabric().host_dram(host);
  const std::uint64_t pages_per_slot = sb / nvme::kPageSize;
  for (std::uint32_t slot = 0; slot < slots; ++slot) {
    Bytes list((pages_per_slot - 1) * 8);
    const std::uint64_t base = conn->staging_base + slot * sb;
    for (std::uint64_t j = 0; j + 1 < pages_per_slot; ++j) {
      store_pod(list, base + (j + 1) * nvme::kPageSize, j * 8);
    }
    (void)dram.write(conn->prp_base + slot * nvme::kPageSize, list);
  }

  auto qid = co_await ctrl_->create_queue_pair(conn->sq_addr, cfg_.queue_entries,
                                               conn->cq_addr, cfg_.queue_entries,
                                               std::nullopt /* polled */);
  if (!qid) {
    promise.set(qid.status());
    co_return;
  }
  conn->qid = *qid;

  nvme::QueuePair::Config qc;
  qc.qid = conn->qid;
  qc.sq_size = cfg_.queue_entries;
  qc.cq_size = cfg_.queue_entries;
  qc.sq_write_addr = conn->sq_addr;
  qc.cq_poll_addr = conn->cq_addr;
  qc.sq_doorbell_addr = ctrl_->sq_doorbell(conn->qid);
  qc.cq_doorbell_addr = ctrl_->cq_doorbell(conn->qid);
  qc.cpu = cluster_.fabric().cpu(host);
  conn->nvme_qp = std::make_unique<nvme::QueuePair>(cluster_.fabric(), qc);
  // A local CQE is issued 154 ns (NTB) or 190 ns (CXL) before it lands,
  // more than the 100 ns floor of the poll interval.
  conn->reactor.emplace(cluster_.fabric(), *conn, std::span(&conn->nvme_qp, 1),
                        std::max<sim::Duration>(cfg_.costs.poll_interval_ns, 100),
                        /*landings_lead=*/cfg_.costs.poll_interval_ns <= 100);
  conn->cq->wake(&conn->reactor->grid());

  for (std::uint32_t slot = 0; slot < slots; ++slot) {
    (void)conn->qp->post_recv(kWrRecv | slot, conn->recv_base + slot * kCapsuleSlotBytes,
                              kCapsuleSlotBytes);
  }

  Connection* raw = conn.get();
  connections_.push_back(std::move(conn));
  raw->reactor->start(host, raw->cq_addr, cfg_.queue_entries * 16ull, stop_);
  NVS_LOG(info, "nvmeof") << "target accepted connection (nvme qid " << raw->qid << ")";
  promise.set(qp_initiator);
}

bool Target::Connection::cq_idle() {
  auto route = [this](const rdma::WorkCompletion& wc) {
    const std::uint64_t kind = wc.wr_id & ~kWrSlotMask;
    if (kind == kWrRecv) {
      if (!wc.status) {
        ++target.stats_.errors;
        return;
      }
      ++inflight;
      target.handle_command(this, static_cast<std::uint32_t>(wc.wr_id & kWrSlotMask),
                            target.stop_);
      return;
    }
    auto it = wr_pending.find(wc.wr_id);
    if (it != wr_pending.end()) {
      auto promise = std::move(it->second);
      wr_pending.erase(it);
      promise.set(wc);
    }
  };
  while (inflight == 0) {
    auto wc = cq->poll();
    if (!wc) return true;
    route(*wc);
  }
  while (auto wc = cq->poll()) route(*wc);
  return false;
}

void Target::Connection::cq_entry(std::uint32_t, const CompletionEntry& cqe) {
  auto it = nvme_pending.find(cqe.cid);
  if (it != nvme_pending.end()) {
    auto promise = std::move(it->second);
    nvme_pending.erase(it);
    promise.set(cqe);
  }
}

sim::Task Target::handle_command(Connection* conn, std::uint32_t slot,
                                 std::shared_ptr<bool> stop) {
  sim::Engine& engine = cluster_.engine();
  mem::PhysMem& dram = cluster_.fabric().host_dram(ctrl_->host());
  ++stats_.commands;

  auto finish = [&]() {
    // The reactor's next round would see the idle connection.
    if (--conn->inflight == 0) conn->reactor->changed();
  };

  CommandCapsule capsule;
  (void)dram.read(conn->recv_base + slot * kCapsuleSlotBytes, as_writable_bytes_of(capsule));
  const std::uint16_t trace_qid =
      nvmeof_trace_qid(static_cast<std::uint16_t>(conn->qp->peer()->node()));

  // Per-command target software: decode capsule, prep the NVMe command.
  const sim::Time decode_begin = engine.now();
  co_await sim::delay(engine, cfg_.costs.jittered(cfg_.costs.submit_ns, rng_));
  trace_target_span(trace_qid, capsule.cid, obs::Phase::submit, decode_begin, engine.now());
  if (*stop) {
    finish();
    co_return;
  }

  const std::uint64_t staging = conn->staging_base + slot * slot_bytes();
  std::uint16_t nvme_status = 0;
  bool ok = true;

  const auto op = static_cast<FabricOp>(capsule.opcode);
  if (capsule.data_len > slot_bytes()) {
    ok = false;
    nvme_status = nvme::kScInvalidField;
  }

  // Writes: in-capsule payloads were delivered with the command; larger
  // payloads are pulled from the initiator with a one-sided RDMA READ (a
  // full network round trip the paper's PCIe path never pays).
  if (ok && op == FabricOp::write && capsule.data_len > 0 &&
      (capsule.flags & kFlagInlineData) != 0) {
    ++stats_.writes;
    Bytes payload(capsule.data_len);
    (void)dram.read(conn->recv_base + slot * kCapsuleSlotBytes + sizeof(CommandCapsule),
                    payload);
    if (capsule.data_digest != 0 && integrity::crc32c(payload) != capsule.data_digest) {
      // Inline payload damaged on the wire: refuse before it reaches media.
      ++integrity::stats().digest_errors;
      ok = false;
      nvme_status = nvme::kScDataTransferError;
    } else {
      (void)dram.write(staging, payload);
    }
  } else if (ok && op == FabricOp::write && capsule.data_len > 0) {
    ++stats_.writes;
    const std::uint64_t wr = kWrRdmaRead | slot;
    auto [it, ins] = conn->wr_pending.emplace(wr, sim::Promise<rdma::WorkCompletion>(engine));
    (void)ins;
    auto fut = it->second.future();
    if (Status st = conn->qp->rdma_read(wr, staging, capsule.data_len,
                                        capsule.initiator_data_addr);
        !st) {
      conn->wr_pending.erase(wr);
      ok = false;
      nvme_status = nvme::kScDataTransferError;
    } else {
      const sim::Time pull_begin = engine.now();
      auto wc = co_await fut;
      if (*stop) {
        finish();
        co_return;
      }
      trace_target_span(trace_qid, capsule.cid, obs::Phase::rdma_data, pull_begin,
                        engine.now());
      if (!wc.status) {
        ok = false;
        nvme_status = nvme::kScDataTransferError;
      } else if (capsule.data_digest != 0) {
        // Verify what actually landed in staging after the RDMA READ.
        Bytes payload(capsule.data_len);
        (void)dram.read(staging, payload);
        if (integrity::crc32c(payload) != capsule.data_digest) {
          ++integrity::stats().digest_errors;
          ok = false;
          nvme_status = nvme::kScDataTransferError;
        }
      }
    }
  }
  if (op == FabricOp::read) ++stats_.reads;

  // Submit to the local NVMe queue pair.
  if (ok) {
    SubmissionEntry sqe;
    const std::uint64_t bytes = capsule.data_len;
    std::uint64_t prp2 = 0;
    if (bytes > 2 * nvme::kPageSize) {
      prp2 = conn->prp_base + slot * nvme::kPageSize;
    } else if (bytes > nvme::kPageSize) {
      prp2 = staging + nvme::kPageSize;
    }
    switch (op) {
      case FabricOp::flush:
        sqe = nvme::make_flush(0, capsule.nsid);
        break;
      case FabricOp::read:
        sqe = nvme::make_io_rw(false, 0, capsule.nsid, capsule.slba,
                               static_cast<std::uint16_t>(capsule.nblocks), staging, prp2);
        break;
      case FabricOp::write:
        sqe = nvme::make_io_rw(true, 0, capsule.nsid, capsule.slba,
                               static_cast<std::uint16_t>(capsule.nblocks), staging, prp2);
        break;
      case FabricOp::write_zeroes:
        sqe = nvme::make_write_zeroes(0, capsule.nsid, capsule.slba,
                                      static_cast<std::uint16_t>(capsule.nblocks));
        break;
      case FabricOp::discard: {
        // Build the range descriptor in this command's staging slot.
        nvme::DsmRange range;
        range.nlb = capsule.nblocks;
        range.slba = capsule.slba;
        (void)dram.write(staging, as_bytes_of(range));
        sqe = nvme::make_dsm_deallocate(0, capsule.nsid, 1, staging);
        break;
      }
      default:
        ok = false;
        nvme_status = nvme::kScInvalidOpcode;
    }
    if (ok) {
      auto cid = conn->nvme_qp->push(sqe);
      if (!cid) {
        ok = false;
        nvme_status = nvme::kScInternalError;
      } else {
        auto [it, ins] =
            conn->nvme_pending.emplace(*cid, sim::Promise<CompletionEntry>(engine));
        (void)ins;
        auto fut = it->second.future();
        const sim::Time nvme_begin = engine.now();
        co_await sim::delay(engine, cfg_.costs.doorbell_ns);
        (void)conn->nvme_qp->ring_sq_doorbell();
        CompletionEntry cqe = co_await fut;
        if (*stop) {
          finish();
          co_return;
        }
        trace_target_span(trace_qid, capsule.cid, obs::Phase::media, nvme_begin, engine.now());
        nvme_status = cqe.status();
        ok = cqe.ok();
      }
    }
  }
  if (!ok) ++stats_.errors;

  // Reads: push the data to the initiator's buffer; the response capsule
  // follows on the same QP, so RC ordering keeps data-before-completion.
  sim::Future<rdma::WorkCompletion> write_fut;
  bool pushed_data = false;
  std::uint32_t read_digest = 0;
  if (ok && op == FabricOp::read && capsule.data_len > 0 && cfg_.data_digest) {
    // DDGST over the staged data before the push: the initiator compares
    // it against what actually arrives in its buffer.
    Bytes payload(capsule.data_len);
    (void)dram.read(staging, payload);
    read_digest = integrity::crc32c(payload);
    ++integrity::stats().digests_generated;
  }
  if (ok && op == FabricOp::read && capsule.data_len > 0) {
    const std::uint64_t wr = kWrRdmaWrite | slot;
    auto [it, ins] = conn->wr_pending.emplace(wr, sim::Promise<rdma::WorkCompletion>(engine));
    (void)ins;
    write_fut = it->second.future();
    if (Status st = conn->qp->rdma_write(wr, staging, capsule.data_len,
                                         capsule.initiator_data_addr);
        !st) {
      conn->wr_pending.erase(wr);
      ok = false;
      nvme_status = nvme::kScDataTransferError;
      ++stats_.errors;
    } else {
      pushed_data = true;
    }
  }

  // Completion path software + the response capsule SEND.
  co_await sim::delay(engine, cfg_.costs.jittered(cfg_.costs.completion_ns, rng_));
  ResponseCapsule response;
  response.cid = capsule.cid;
  response.status = ok ? 0 : (nvme_status != 0 ? nvme_status : nvme::kScInternalError);
  if (ok && pushed_data) response.data_digest = read_digest;
  (void)dram.write(conn->resp_base + slot * sizeof(ResponseCapsule), as_bytes_of(response));

  const std::uint64_t wr_send = kWrSend | slot;
  auto [sit, sins] = conn->wr_pending.emplace(wr_send, sim::Promise<rdma::WorkCompletion>(engine));
  (void)sins;
  auto send_fut = sit->second.future();
  if (Status st = conn->qp->post_send(wr_send, conn->resp_base + slot * sizeof(ResponseCapsule),
                                      sizeof(ResponseCapsule));
      !st) {
    conn->wr_pending.erase(wr_send);
  } else {
    (void)co_await send_fut;
  }
  if (pushed_data) (void)co_await write_fut;
  if (*stop) {
    finish();
    co_return;
  }

  // Recycle the command slot.
  (void)conn->qp->post_recv(kWrRecv | slot, conn->recv_base + slot * kCapsuleSlotBytes,
                            kCapsuleSlotBytes);
  finish();
}

}  // namespace nvmeshare::nvmeof
