#include "rdma/rdma.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "fault/fault.hpp"

namespace nvmeshare::rdma {

Network::Stats::Stats()
    : sends("nvmeshare.rdma.sends"),
      rdma_writes("nvmeshare.rdma.rdma_writes"),
      rdma_reads("nvmeshare.rdma.rdma_reads"),
      bytes_moved("nvmeshare.rdma.bytes_moved"),
      rnr_drops("nvmeshare.rdma.rnr_drops"),
      protection_errors("nvmeshare.rdma.protection_errors") {}

// --- Context -------------------------------------------------------------------

Status Context::register_mr(std::uint64_t addr, std::uint64_t len) {
  if (len == 0) return Status(Errc::invalid_argument, "empty MR");
  mrs_.emplace_back(addr, len);
  return Status::ok();
}

Status Context::deregister_mr(std::uint64_t addr) {
  auto it = std::find_if(mrs_.begin(), mrs_.end(),
                         [addr](const auto& mr) { return mr.first == addr; });
  if (it == mrs_.end()) return Status(Errc::not_found, "no MR at address");
  mrs_.erase(it);
  return Status::ok();
}

bool Context::covered(std::uint64_t addr, std::uint64_t len) const {
  for (const auto& [base, size] : mrs_) {
    if (addr >= base && addr + len <= base + size) return true;
  }
  return false;
}

// --- Network -------------------------------------------------------------------

sim::Duration Network::message_latency(std::uint64_t bytes) const {
  return cfg_.per_message_ns + cfg_.nic_tx_ns + cfg_.propagation_ns + cfg_.switch_ns +
         cfg_.nic_rx_ns +
         static_cast<sim::Duration>(static_cast<double>(bytes) / cfg_.bytes_per_ns);
}

std::pair<QueuePair*, QueuePair*> Network::create_qp_pair(Context& a, CompletionQueue& cq_a,
                                                          Context& b, CompletionQueue& cq_b) {
  auto qa = std::make_unique<QueuePair>();
  auto qb = std::make_unique<QueuePair>();
  qa->ctx_ = &a;
  qa->cq_ = &cq_a;
  qa->network_ = this;
  qb->ctx_ = &b;
  qb->cq_ = &cq_b;
  qb->network_ = this;
  qa->peer_ = qb.get();
  qb->peer_ = qa.get();
  QueuePair* pa = qa.get();
  QueuePair* pb = qb.get();
  qps_.push_back(std::move(qa));
  qps_.push_back(std::move(qb));
  return {pa, pb};
}

// --- QueuePair -----------------------------------------------------------------

sim::Time QueuePair::schedule_delivery(sim::Duration latency, std::uint64_t bytes) {
  sim::Engine& engine = network_->engine();
  const NetworkConfig& cfg = network_->config();
  const auto gap = static_cast<sim::Duration>(static_cast<double>(bytes) / cfg.bytes_per_ns) +
                   cfg.per_message_ns;
  const sim::Time at = std::max(engine.now() + latency, out_floor_ + gap);
  out_floor_ = at;
  return at;
}

Status QueuePair::post_recv(std::uint64_t wr_id, std::uint64_t addr, std::uint32_t len) {
  if (!ctx_->covered(addr, len)) {
    ++network_->stats_.protection_errors;
    return Status(Errc::permission_denied, "recv buffer not in a registered MR");
  }
  recvs_.push_back(RecvBuffer{wr_id, addr, len});
  return Status::ok();
}

Status QueuePair::post_send(std::uint64_t wr_id, std::uint64_t addr, std::uint32_t len) {
  if (!ctx_->covered(addr, len)) {
    ++network_->stats_.protection_errors;
    return Status(Errc::permission_denied, "send buffer not in a registered MR");
  }
  // Fault injection: a lost SEND leaves the wire silently — the post
  // succeeds but no delivery is scheduled and neither side ever sees a
  // completion, exactly like a wire loss the RC retry budget gave up on.
  if (fault::enabled() && fault::Injector::global().on_capsule_send()) {
    return Status::ok();
  }
  Network& net = *network_;
  ++net.stats_.sends;
  net.stats_.bytes_moved += len;

  // Snapshot the payload at post time (the HCA DMAs it out immediately;
  // modifying the buffer afterwards must not change the message).
  Bytes payload(len);
  if (Status st = net.fabric_.host_dram(node()).read(addr, payload); !st) return st;

  const sim::Time deliver_at = schedule_delivery(net.message_latency(len), len);
  QueuePair* dst = peer_;
  net.engine().at(deliver_at, [this, dst, wr_id, payload = std::move(payload), len]() mutable {
    Network& n = *network_;
    if (dst->recvs_.empty()) {
      // Receiver-not-ready: in RC this would retry and eventually error the
      // QP; we complete both sides with an error immediately.
      ++n.stats_.rnr_drops;
      cq_->push(WorkCompletion{WcOpcode::send,
                                      Status(Errc::unavailable, "RNR: no posted recv"), wr_id,
                                      len});
      return;
    }
    RecvBuffer rb = dst->recvs_.front();
    dst->recvs_.pop_front();
    if (len > rb.len) {
      dst->cq_->push(WorkCompletion{
          WcOpcode::recv, Status(Errc::out_of_range, "message exceeds recv buffer"), rb.wr_id,
          len});
      cq_->push(WorkCompletion{WcOpcode::send,
                                      Status(Errc::out_of_range, "recv buffer too small"),
                                      wr_id, len});
      return;
    }
    (void)n.fabric_.host_dram(dst->node()).write(rb.addr, payload);
    dst->cq_->push(WorkCompletion{WcOpcode::recv, Status::ok(), rb.wr_id, len});
    // Sender's completion: generated by the remote ACK, so it trails the
    // delivery by roughly one header traversal.
    n.engine().after(n.message_latency(0) / 2, [this, wr_id, len]() {
      cq_->push(WorkCompletion{WcOpcode::send, Status::ok(), wr_id, len});
    });
  });
  return Status::ok();
}

Status QueuePair::rdma_write(std::uint64_t wr_id, std::uint64_t addr, std::uint32_t len,
                             std::uint64_t remote_addr) {
  if (!ctx_->covered(addr, len)) {
    ++network_->stats_.protection_errors;
    return Status(Errc::permission_denied, "local buffer not in a registered MR");
  }
  Network& net = *network_;
  if (!peer_->ctx_->covered(remote_addr, len)) {
    ++net.stats_.protection_errors;
    return Status(Errc::permission_denied, "remote address not in a registered MR");
  }
  ++net.stats_.rdma_writes;
  net.stats_.bytes_moved += len;

  Bytes payload(len);
  if (Status st = net.fabric_.host_dram(node()).read(addr, payload); !st) return st;

  const sim::Time deliver_at = schedule_delivery(net.message_latency(len), len);
  QueuePair* dst = peer_;
  net.engine().at(deliver_at, [this, dst, wr_id, payload = std::move(payload), remote_addr,
                               len]() mutable {
    Network& n = *network_;
    (void)n.fabric_.host_dram(dst->node()).write(remote_addr, payload);
    n.engine().after(n.message_latency(0) / 2, [this, wr_id, len]() {
      cq_->push(WorkCompletion{WcOpcode::rdma_write, Status::ok(), wr_id, len});
    });
  });
  return Status::ok();
}

Status QueuePair::rdma_read(std::uint64_t wr_id, std::uint64_t addr, std::uint32_t len,
                            std::uint64_t remote_addr) {
  if (!ctx_->covered(addr, len)) {
    ++network_->stats_.protection_errors;
    return Status(Errc::permission_denied, "local buffer not in a registered MR");
  }
  Network& net = *network_;
  if (!peer_->ctx_->covered(remote_addr, len)) {
    ++net.stats_.protection_errors;
    return Status(Errc::permission_denied, "remote address not in a registered MR");
  }
  ++net.stats_.rdma_reads;
  net.stats_.bytes_moved += len;

  // Request travels as a header-only message; the peer HCA DMAs the data
  // out of memory (no software) and the response carries the payload back.
  const sim::Time request_at = schedule_delivery(net.message_latency(0), 0);
  QueuePair* dst = peer_;
  net.engine().at(request_at, [this, dst, wr_id, addr, len, remote_addr]() {
    Network& n = *network_;
    Bytes payload(len);
    (void)n.fabric_.host_dram(dst->node()).read(remote_addr, payload);
    // The response travels the peer->us direction and obeys its FIFO.
    const sim::Time response_at = dst->schedule_delivery(n.message_latency(len), len);
    n.engine().at(response_at, [this, wr_id, addr, len, payload = std::move(payload)]() mutable {
      Network& nn = *network_;
      (void)nn.fabric_.host_dram(node()).write(addr, payload);
      cq_->push(WorkCompletion{WcOpcode::rdma_read, Status::ok(), wr_id, len});
    });
  });
  return Status::ok();
}

}  // namespace nvmeshare::rdma
