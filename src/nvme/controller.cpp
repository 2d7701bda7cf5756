#include "nvme/controller.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"
#include "fault/fault.hpp"
#include "integrity/integrity.hpp"
#include "obs/trace.hpp"

namespace nvmeshare::nvme {

namespace {
constexpr std::uint16_t kMsixVectors = 33;  // one per possible CQ (admin + 32)

bool cq_full(std::uint16_t tail, std::uint16_t head, std::uint16_t size) {
  return static_cast<std::uint16_t>((tail + 1) % size) == head;
}

/// Attribute a controller-side span to the client request that queued the
/// command, via the tracer's (qid, cid) binding. No-op when tracing is off
/// or the command was not submitted by a traced request.
void trace_io_span(std::uint16_t qid, std::uint16_t cid, obs::Phase phase, sim::Time begin,
                   sim::Time end) {
  obs::Tracer& tracer = obs::Tracer::global();
  if (!tracer.enabled()) return;
  if (const std::uint64_t trace = tracer.lookup(qid, cid); trace != 0) {
    tracer.record(trace, obs::Track::controller, phase, begin, end, qid, cid);
  }
}
}  // namespace

Controller::Stats::Stats()
    : doorbell_writes("nvmeshare.controller.doorbell_writes"),
      commands_fetched("nvmeshare.controller.commands_fetched"),
      fetch_dma_reads("nvmeshare.controller.fetch_dma_reads"),
      admin_commands("nvmeshare.controller.admin_commands"),
      io_reads("nvmeshare.controller.io_reads"),
      io_writes("nvmeshare.controller.io_writes"),
      io_flushes("nvmeshare.controller.io_flushes"),
      bytes_read("nvmeshare.controller.bytes_read"),
      bytes_written("nvmeshare.controller.bytes_written"),
      errors_completed("nvmeshare.controller.errors_completed") {}

Controller::Controller(sim::Engine& engine, Config cfg)
    : engine_(engine),
      cfg_(cfg),
      store_(cfg.capacity_blocks, cfg.block_size),
      rng_(cfg.seed) {
  cap_ = static_cast<std::uint64_t>(cfg_.max_queue_entries - 1)  // MQES (0-based)
         | (1ull << 16)                                          // CQR
         | (1ull << 17)                                          // AMS: WRR w/ urgent
         | (10ull << 24)                                          // TO
         | (1ull << 37);                                          // CSS: NVM command set
  sqs_.resize(cfg_.max_queue_pairs);
  cqs_.resize(cfg_.max_queue_pairs);
  for (std::uint16_t i = 0; i < cfg_.max_queue_pairs; ++i) {
    cqs_[i].space = std::make_unique<sim::Event>(engine_);
  }
  work_ = std::make_unique<sim::Event>(engine_);
  msix_.resize(kMsixVectors);
  channels_ = std::make_unique<sim::Semaphore>(engine_, cfg_.service.channels);
  if (cfg_.pi_enabled) store_.format_with_pi(true);
}

int Controller::active_io_sq_count() const {
  int n = 0;
  for (std::size_t i = 1; i < sqs_.size(); ++i) n += sqs_[i].valid ? 1 : 0;
  return n;
}

// --- register file ---------------------------------------------------------------

std::uint64_t Controller::read_register(std::uint64_t offset, std::size_t len) const {
  auto word = [&](std::uint64_t value, std::uint64_t base) -> std::uint64_t {
    // Support 4-byte reads of either half of an 8-byte register.
    if (len == 4 && offset == base + 4) return value >> 32;
    return value;
  };
  if (offset == reg::kCap || offset == reg::kCap + 4) return word(cap_, reg::kCap);
  if (offset == reg::kVs) return vs_;
  if (offset == reg::kCc) return cc_;
  if (offset == reg::kCsts) return csts_;
  if (offset == reg::kAqa) return aqa_;
  if (offset == reg::kAsq || offset == reg::kAsq + 4) return word(asq_, reg::kAsq);
  if (offset == reg::kAcq || offset == reg::kAcq + 4) return word(acq_, reg::kAcq);
  return 0;
}

Result<Bytes> Controller::bar_read(int bar, std::uint64_t offset, std::size_t len) {
  if (bar != 0) return Status(Errc::invalid_argument, "nvme: only BAR0 exists");
  if (offset + len > bar_size(0)) return Status(Errc::out_of_range, "nvme: BAR0 read OOB");
  Bytes out(len, std::byte{0});
  if (offset >= reg::kMsixTable &&
      offset + len <= reg::kMsixTable + kMsixVectors * reg::kMsixEntrySize) {
    // MSI-X table readback.
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t o = offset - reg::kMsixTable + i;
      const auto& e = msix_[o / reg::kMsixEntrySize];
      std::uint8_t raw[16] = {};
      std::memcpy(raw, &e.addr, 8);
      std::memcpy(raw + 8, &e.data, 4);
      const std::uint32_t mask = e.masked ? 1u : 0u;
      std::memcpy(raw + 12, &mask, 4);
      out[i] = std::byte{raw[o % reg::kMsixEntrySize]};
    }
    return out;
  }
  const std::uint64_t v = read_register(offset, len);
  std::memcpy(out.data(), &v, std::min<std::size_t>(len, 8));
  return out;
}

Status Controller::bar_write(int bar, std::uint64_t offset, ConstByteSpan data) {
  if (bar != 0) return Status(Errc::invalid_argument, "nvme: only BAR0 exists");
  if (offset + data.size() > bar_size(0)) {
    return Status(Errc::out_of_range, "nvme: BAR0 write OOB");
  }

  // Doorbells.
  if (offset >= reg::kDoorbellBase && offset < reg::kMsixTable) {
    if (data.size() != 4 || offset % 4 != 0) {
      return Status(Errc::invalid_argument, "doorbell writes must be aligned 4-byte stores");
    }
    handle_doorbell(offset, load_pod<std::uint32_t>(data));
    return Status::ok();
  }

  // MSI-X table.
  if (offset >= reg::kMsixTable &&
      offset + data.size() <= reg::kMsixTable + kMsixVectors * reg::kMsixEntrySize) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      const std::uint64_t o = offset - reg::kMsixTable + i;
      auto& e = msix_[o / reg::kMsixEntrySize];
      std::uint8_t raw[16];
      std::memcpy(raw, &e.addr, 8);
      std::memcpy(raw + 8, &e.data, 4);
      std::uint32_t mask = e.masked ? 1u : 0u;
      std::memcpy(raw + 12, &mask, 4);
      raw[o % reg::kMsixEntrySize] = static_cast<std::uint8_t>(data[i]);
      std::memcpy(&e.addr, raw, 8);
      std::memcpy(&e.data, raw + 8, 4);
      std::memcpy(&mask, raw + 12, 4);
      e.masked = (mask & 1u) != 0;
    }
    return Status::ok();
  }

  // Control registers.
  const std::uint64_t v64 = data.size() >= 8 ? load_pod<std::uint64_t>(data)
                                             : load_pod<std::uint32_t>(data.first(4));
  switch (offset) {
    case reg::kCc:
      write_cc(static_cast<std::uint32_t>(v64));
      return Status::ok();
    case reg::kAqa:
      aqa_ = static_cast<std::uint32_t>(v64);
      return Status::ok();
    case reg::kAsq:
      if (data.size() == 8) {
        asq_ = v64;
      } else {
        asq_ = (asq_ & ~0xFFFFFFFFull) | v64;
      }
      return Status::ok();
    case reg::kAsq + 4:
      asq_ = (asq_ & 0xFFFFFFFFull) | (v64 << 32);
      return Status::ok();
    case reg::kAcq:
      if (data.size() == 8) {
        acq_ = v64;
      } else {
        acq_ = (acq_ & ~0xFFFFFFFFull) | v64;
      }
      return Status::ok();
    case reg::kAcq + 4:
      acq_ = (acq_ & 0xFFFFFFFFull) | (v64 << 32);
      return Status::ok();
    case reg::kIntms:
    case reg::kIntmc:
      return Status::ok();  // accepted, no-op (polling model)
    default:
      NVS_LOG(debug, "nvme") << "ignored register write at 0x" << std::hex << offset;
      return Status::ok();
  }
}

void Controller::write_cc(std::uint32_t value) {
  const bool was_enabled = (cc_ & kCcEnable) != 0;
  const bool now_enabled = (value & kCcEnable) != 0;
  cc_ = value;
  if (!was_enabled && now_enabled) {
    enable_controller();
  } else if (was_enabled && !now_enabled) {
    disable_controller(/*fatal=*/false);
    csts_ &= ~kCstsFatal;  // a controller reset clears CSTS.CFS
  }
  if (cc_shn(value) != 0) {
    // Shutdown notification: complete immediately in this model.
    csts_ = (csts_ & ~0xCu) | kCstsShutdownComplete;
  }
}

void Controller::enable_controller() {
  const std::uint16_t asqs = static_cast<std::uint16_t>((aqa_ & 0xFFF) + 1);
  const std::uint16_t acqs = static_cast<std::uint16_t>(((aqa_ >> 16) & 0xFFF) + 1);
  if (asqs < 2 || acqs < 2 || asqs > cfg_.max_queue_entries || acqs > cfg_.max_queue_entries ||
      asq_ == 0 || acq_ == 0 || asq_ % kPageSize != 0 || acq_ % kPageSize != 0) {
    NVS_LOG(warn, "nvme") << "enable with bad admin queue config -> fatal";
    disable_controller(/*fatal=*/true);
    return;
  }
  SqState& sq = sqs_[0];
  sq.valid = true;
  sq.base = asq_;
  sq.size = asqs;
  sq.head = sq.tail = 0;
  CqState& cq = cqs_[0];
  cq.valid = true;
  cq.base = acq_;
  cq.size = acqs;
  cq.tail = cq.head = 0;
  cq.phase = true;
  cq.irq_enabled = false;

  // Latch the arbitration mechanism for this enable cycle and restart the
  // WRR state: per-class cursors back to queue 1, credits empty (the first
  // weighted turn reloads them from the current weights).
  ams_ = cc_ams(cc_);
  wrr_next_.fill(1);
  wrr_credits_.fill(0);

  const std::uint64_t gen = generation_;
  engine_.after(cfg_.service.enable_ns, [this, gen]() {
    if (gen != generation_ || (cc_ & kCcEnable) == 0) return;
    csts_ |= kCstsReady;
    arbiter_task(gen);
    NVS_LOG(info, "nvme") << "controller ready";
  });
}

void Controller::disable_controller(bool fatal) {
  ++generation_;
  for (auto& sq : sqs_) {
    sq.valid = false;
    sq.retry_not_before = 0;
  }
  for (auto& cq : cqs_) {
    cq.valid = false;
    cq.space->set();
  }
  work_->set();  // wake the arbiter so it observes the new generation and exits
  csts_ &= ~kCstsReady;
  if (fatal) csts_ |= kCstsFatal;
  granted_io_queues_ = 0;
  pending_aer_cids_.clear();
}

void Controller::handle_doorbell(std::uint64_t offset, std::uint32_t value) {
  ++stats_.doorbell_writes;
  if (!is_ready()) {
    NVS_LOG(warn, "nvme") << "doorbell write while not ready (ignored)";
    return;
  }
  const std::uint64_t index = (offset - reg::kDoorbellBase) / kDoorbellStride;
  const auto qid = static_cast<std::uint16_t>(index / 2);
  const bool is_cq = (index % 2) != 0;
  if (qid >= cfg_.max_queue_pairs) {
    disable_controller(/*fatal=*/true);
    return;
  }
  if (is_cq) {
    CqState& cq = cqs_[qid];
    if (!cq.valid || value >= cq.size) {
      NVS_LOG(warn, "nvme") << "invalid CQ head doorbell q" << qid << " value " << value;
      disable_controller(/*fatal=*/true);
      return;
    }
    cq.head = static_cast<std::uint16_t>(value);
    cq.space->set();
    return;
  }
  SqState& sq = sqs_[qid];
  if (!sq.valid || value >= sq.size) {
    NVS_LOG(warn, "nvme") << "invalid SQ tail doorbell q" << qid << " value " << value;
    disable_controller(/*fatal=*/true);
    return;
  }
  sq.tail = static_cast<std::uint16_t>(value);
  work_->set();
}

// --- fetch & dispatch ----------------------------------------------------------------

sim::Task Controller::arbiter_task(std::uint64_t gen) {
  // NVMe round-robin arbitration, one servicer for every doorbell: the
  // admin queue drains with strict priority, then each I/O queue with work
  // gets a turn of at most arb_burst() commands, rotating from rr_next_.
  // A queue mid-retry (transient fetch-DMA failure) is skipped until its
  // retry_not_before passes, so one unreachable host cannot stall others.
  for (;;) {
    if (gen != generation_) co_return;

    if (sqs_[0].valid && sqs_[0].head != sqs_[0].tail) {
      const int n = co_await fetch_turn(0, cfg_.fetch_burst, gen);
      if (gen != generation_ || n == -2) co_return;
      continue;  // keep admin drained before offering I/O turns
    }

    bool fetched = false;
    bool deferred = false;
    sim::Time next_retry = 0;
    const auto nio = static_cast<std::uint16_t>(cfg_.max_queue_pairs - 1);
    if (ams_ == kCcAmsWrr) {
      const std::uint16_t qid = wrr_pick(deferred, next_retry);
      if (qid != 0) {
        const int n = co_await fetch_turn(qid, arb_burst(), gen);
        if (gen != generation_ || n == -2) co_return;
        fetched = true;
      }
    } else {
      for (std::uint16_t step = 0; step < nio && !fetched; ++step) {
        const auto qid = static_cast<std::uint16_t>(1 + (rr_next_ - 1 + step) % nio);
        SqState& sq = sqs_[qid];
        if (!sq.valid || sq.head == sq.tail) continue;
        if (sq.retry_not_before > engine_.now()) {
          deferred = true;
          if (next_retry == 0 || sq.retry_not_before < next_retry) {
            next_retry = sq.retry_not_before;
          }
          continue;
        }
        const int n = co_await fetch_turn(qid, arb_burst(), gen);
        if (gen != generation_ || n == -2) co_return;
        rr_next_ = static_cast<std::uint16_t>(1 + qid % nio);  // queue after this one
        fetched = true;
      }
    }
    if (fetched) continue;

    work_->reset();
    if (deferred) {
      // Every queue with work is backing off; wake when the earliest retry
      // is due (a doorbell meanwhile also wakes us, and a stale wakeup just
      // re-scans).
      engine_.after(next_retry - engine_.now(), [this, gen]() {
        if (gen == generation_) work_->set();
      });
    }
    co_await work_->wait();
  }
}

std::uint16_t Controller::wrr_pick(bool& deferred, sim::Time& next_retry) {
  const auto nio = static_cast<std::uint16_t>(cfg_.max_queue_pairs - 1);
  auto ready = [&](std::uint16_t qid) -> bool {
    SqState& sq = sqs_[qid];
    if (!sq.valid || sq.head == sq.tail) return false;
    if (sq.retry_not_before > engine_.now()) {
      deferred = true;
      if (next_retry == 0 || sq.retry_not_before < next_retry) {
        next_retry = sq.retry_not_before;
      }
      return false;
    }
    return true;
  };
  // Round-robin inside one class, advancing that class's cursor only when a
  // queue is actually chosen (a fruitless scan must not rotate fairness).
  auto scan_class = [&](std::uint8_t cls) -> std::uint16_t {
    for (std::uint16_t step = 0; step < nio; ++step) {
      const auto qid = static_cast<std::uint16_t>(1 + (wrr_next_[cls] - 1 + step) % nio);
      if (sqs_[qid].prio != cls || !ready(qid)) continue;
      wrr_next_[cls] = static_cast<std::uint16_t>(1 + qid % nio);
      return qid;
    }
    return 0;
  };
  // Urgent is strict priority: it pre-empts the weighted classes entirely.
  if (const std::uint16_t qid = scan_class(static_cast<std::uint8_t>(SqPriority::urgent))) {
    return qid;
  }
  // Weighted classes spend one credit per turn, high before medium before
  // low. Weights are 0-based (weight = field + 1): a zero-programmed class
  // still reloads to one credit per round, so nothing starves. Pass 0 may
  // find every class with work out of credit — reload and scan once more.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint8_t i = 0; i < 3; ++i) {
      const auto cls = static_cast<std::uint8_t>(i + 1);  // high, medium, low
      if (wrr_credits_[i] == 0) continue;
      if (const std::uint16_t qid = scan_class(cls)) {
        --wrr_credits_[i];
        return qid;
      }
    }
    if (pass == 0) {
      const std::uint8_t weights[3] = {hpw_, mpw_, lpw_};
      for (std::uint8_t i = 0; i < 3; ++i) {
        wrr_credits_[i] = static_cast<std::uint32_t>(weights[i]) + 1;
      }
    }
  }
  return 0;
}

sim::Future<int> Controller::fetch_turn(std::uint16_t qid, std::uint16_t limit,
                                        std::uint64_t gen) {
  sim::Promise<int> promise(engine_);
  fetch_turn_task(qid, limit, gen, promise);
  return promise.future();
}

sim::Task Controller::fetch_turn_task(std::uint16_t qid, std::uint16_t limit, std::uint64_t gen,
                                      sim::Promise<int> promise) {
  SqState& sq = sqs_[qid];
  const auto avail = static_cast<std::uint16_t>((sq.tail - sq.head + sq.size) % sq.size);
  const auto until_wrap = static_cast<std::uint16_t>(sq.size - sq.head);
  const std::uint16_t n = std::min({avail, until_wrap, cfg_.fetch_burst, limit});
  ++stats_.fetch_dma_reads;
  const sim::Time fetch_begin = engine_.now();
  auto data = co_await fabric()->read(
      dma_initiator(), sq.base + static_cast<std::uint64_t>(sq.head) * sizeof(SubmissionEntry),
      static_cast<std::size_t>(n) * sizeof(SubmissionEntry));
  if (gen != generation_ || !sqs_[qid].valid) {
    promise.set(0);
    co_return;
  }
  if (!data) {
    // Per-queue isolation: an I/O queue whose memory became *transiently*
    // unreachable (NTB link down -> Errc::unavailable) must not take the
    // whole controller and every other host's queues down with it; the
    // arbiter skips it until the path heals or the queue is deleted. A
    // permanent routing failure (unmapped address = mis-programmed queue
    // base) stays fatal, as does any admin-queue failure.
    if (qid != 0 && data.status().code() == Errc::unavailable) {
      NVS_LOG(warn, "nvme") << "SQ fetch DMA failed (q" << qid
                            << "): " << data.status().to_string() << " -> retry";
      sq.retry_not_before = engine_.now() + cfg_.service.queue_retry_ns;
      promise.set(-1);
      co_return;
    }
    NVS_LOG(error, "nvme") << "SQ fetch DMA failed (q" << qid
                           << "): " << data.status().to_string() << " -> fatal";
    disable_controller(/*fatal=*/true);
    promise.set(-2);
    co_return;
  }
  for (std::uint16_t i = 0; i < n; ++i) {
    const auto sqe =
        load_pod<SubmissionEntry>(*data, static_cast<std::size_t>(i) * sizeof(SubmissionEntry));
    if (qid != 0) {
      trace_io_span(qid, sqe.cid, obs::Phase::ctrl_fetch, fetch_begin, engine_.now());
    }
    const auto head_after = static_cast<std::uint16_t>((sq.head + i + 1) % sq.size);
    execute_command(qid, sqe, head_after, gen);
  }
  sq.head = static_cast<std::uint16_t>((sq.head + n) % sq.size);
  stats_.commands_fetched += n;
  promise.set(n);
}

sim::Task Controller::execute_command(std::uint16_t qid, SubmissionEntry sqe,
                                      std::uint16_t sq_head_after, std::uint64_t gen) {
  if (qid == 0) {
    // Vendor scrub is privileged — the manager issues it on the admin
    // queue — but it executes like an I/O command (media access, channel
    // arbitration), so it routes through run_io.
    if (static_cast<IoOpcode>(sqe.opcode) == IoOpcode::vendor_scrub) {
      run_io(qid, sqe, sq_head_after, gen);
    } else {
      run_admin(sqe, sq_head_after, gen);
    }
  } else {
    run_io(qid, sqe, sq_head_after, gen);
  }
  co_return;
}

// --- completion path --------------------------------------------------------------------

sim::Task Controller::complete(std::uint16_t sqid, std::uint16_t sq_head_after,
                               std::uint16_t cid, std::uint16_t status, std::uint32_t dw0,
                               std::uint64_t gen, sim::Time not_before) {
  if (gen != generation_) co_return;
  const std::uint16_t cqid = sqs_[sqid].cqid;  // admin SQ pairs with CQ 0
  CqState& cq = cqs_[sqid == 0 ? 0 : cqid];
  for (;;) {
    if (gen != generation_ || !cq.valid) co_return;
    if (!cq_full(cq.tail, cq.head, cq.size)) break;
    cq.space->reset();
    co_await cq.space->wait();
  }
  if (status != kScSuccess) ++stats_.errors_completed;

  CompletionEntry e;
  e.dw0 = dw0;
  e.sq_head = sq_head_after;
  e.sqid = sqid;
  e.cid = cid;
  e.status_phase = static_cast<std::uint16_t>(status << 1);
  e.set_phase(cq.phase);

  const std::uint16_t slot = cq.tail;
  cq.tail = static_cast<std::uint16_t>((cq.tail + 1) % cq.size);
  if (cq.tail == 0) cq.phase = !cq.phase;

  sim::Time arrival = 0;
  for (;;) {
    Result<sim::Time> posted = fabric()->post_write(
        dma_initiator(), cq.base + static_cast<std::uint64_t>(slot) * sizeof(CompletionEntry),
        as_bytes_of(e), not_before);
    if (posted) {
      arrival = *posted;
      break;
    }
    // Per-queue isolation, mirroring the SQ-fetch path: retry transient
    // unreachability (link down) until the CQ heals or is deleted; permanent
    // routing failures and admin-queue failures stay fatal.
    if (sqid != 0 && posted.status().code() == Errc::unavailable) {
      NVS_LOG(warn, "nvme") << "CQE post failed (q" << cqid
                            << "): " << posted.status().to_string() << " -> retry";
      co_await sim::delay(engine_, cfg_.service.queue_retry_ns);
      if (gen != generation_ || !cq.valid) co_return;
      continue;
    }
    NVS_LOG(error, "nvme") << "CQE post failed (q" << cqid
                           << "): " << posted.status().to_string();
    disable_controller(/*fatal=*/true);
    co_return;
  }
  if (sqid != 0) trace_io_span(sqid, cid, obs::Phase::cq_write, engine_.now(), arrival);
  if (cq.irq_enabled && cq.irq_vector < msix_.size() && !msix_[cq.irq_vector].masked &&
      msix_[cq.irq_vector].addr != 0) {
    // The interrupt message is a posted write ordered behind the CQE.
    (void)fabric()->post_write(dma_initiator(), msix_[cq.irq_vector].addr,
                               as_bytes_of(msix_[cq.irq_vector].data), arrival);
  }
}

// --- admin commands ------------------------------------------------------------------------

sim::Task Controller::run_admin(SubmissionEntry sqe, std::uint16_t sq_head_after,
                                std::uint64_t gen) {
  ++stats_.admin_commands;
  co_await sim::delay(engine_, cfg_.service.admin_ns);
  if (gen != generation_) co_return;

  const auto op = static_cast<AdminOpcode>(sqe.opcode);
  switch (op) {
    case AdminOpcode::identify:
    case AdminOpcode::get_log_page: {
      Bytes payload;
      std::uint16_t status = kScSuccess;
      if (op == AdminOpcode::identify) {
        const auto cns = static_cast<IdentifyCns>(sqe.cdw10 & 0xFF);
        switch (cns) {
          case IdentifyCns::controller: {
            ControllerInfo info;
            info.max_queue_pairs = cfg_.max_queue_pairs;
            payload = build_identify_controller(info);
            break;
          }
          case IdentifyCns::ns: {
            if (sqe.nsid != 1) {
              status = kScInvalidNamespace;
              break;
            }
            payload = build_identify_namespace(NamespaceInfo{
                store_.capacity_blocks(), store_.block_size(), store_.pi_enabled()});
            break;
          }
          case IdentifyCns::active_ns_list: {
            payload.assign(4096, std::byte{0});
            const std::uint32_t one = 1;
            store_pod(payload, one, 0);
            break;
          }
          default:
            status = kScInvalidField;
        }
      } else {
        // Get Log Page (<= 4 KiB here).
        const std::uint32_t numd = ((sqe.cdw10 >> 16) & 0xFFF) + 1;
        const std::size_t bytes = std::min<std::size_t>(numd * 4, 4096);
        payload.assign(bytes, std::byte{0});
        const auto lid = static_cast<LogPageId>(sqe.cdw10 & 0xFF);
        if (lid == LogPageId::smart_health && bytes >= 512) {
          // SMART / Health Information: populated from live counters.
          payload[0] = std::byte{0};                         // no critical warnings
          store_pod(payload, std::uint16_t{310}, 1);         // 310 K ≈ 37 C
          payload[3] = std::byte{100};                       // available spare %
          payload[5] = std::byte{0};                         // percentage used
          store_pod(payload, stats_.bytes_read / (512 * 1000), 32);
          store_pod(payload, stats_.bytes_written / (512 * 1000), 48);
          store_pod(payload, stats_.io_reads.value(), 64);
          store_pod(payload, stats_.io_writes.value(), 80);
          store_pod(payload,
                    static_cast<std::uint64_t>(engine_.now() / 3'600'000'000'000LL), 144);
        }
      }
      if (status != kScSuccess) {
        complete(0, sq_head_after, sqe.cid, status, 0, gen, 0);
        co_return;
      }
      auto sg = co_await walk_prps(sqe.prp1, sqe.prp2, payload.size());
      if (gen != generation_) co_return;
      if (!sg) {
        complete(0, sq_head_after, sqe.cid, kScInvalidField, 0, gen, 0);
        co_return;
      }
      auto arrival = fabric()->write_sg(dma_initiator(), *sg, std::move(payload));
      if (!arrival) {
        complete(0, sq_head_after, sqe.cid, kScDataTransferError, 0, gen, 0);
        co_return;
      }
      complete(0, sq_head_after, sqe.cid, kScSuccess, 0, gen, *arrival);
      co_return;
    }
    case AdminOpcode::create_io_cq: {
      const AdminResult r = admin_create_cq(sqe);
      complete(0, sq_head_after, sqe.cid, r.status, r.dw0, gen, 0);
      co_return;
    }
    case AdminOpcode::create_io_sq: {
      const AdminResult r = admin_create_sq(sqe, gen);
      complete(0, sq_head_after, sqe.cid, r.status, r.dw0, gen, 0);
      co_return;
    }
    case AdminOpcode::delete_io_sq: {
      const AdminResult r = admin_delete_sq(sqe);
      complete(0, sq_head_after, sqe.cid, r.status, r.dw0, gen, 0);
      co_return;
    }
    case AdminOpcode::delete_io_cq: {
      const AdminResult r = admin_delete_cq(sqe);
      complete(0, sq_head_after, sqe.cid, r.status, r.dw0, gen, 0);
      co_return;
    }
    case AdminOpcode::set_features: {
      const AdminResult r = admin_set_features(sqe);
      complete(0, sq_head_after, sqe.cid, r.status, r.dw0, gen, 0);
      co_return;
    }
    case AdminOpcode::get_features: {
      const AdminResult r = admin_get_features(sqe);
      complete(0, sq_head_after, sqe.cid, r.status, r.dw0, gen, 0);
      co_return;
    }
    case AdminOpcode::abort: {
      // Best-effort abort (spec-compliant): report "not aborted" in DW0.
      complete(0, sq_head_after, sqe.cid, kScSuccess, 1, gen, 0);
      co_return;
    }
    case AdminOpcode::async_event_request:
      // Parked until an event occurs; this model raises none, so the
      // command intentionally never completes (like an idle healthy drive).
      pending_aer_cids_.push_back(sqe.cid);
      co_return;
    default:
      complete(0, sq_head_after, sqe.cid, kScInvalidOpcode, 0, gen, 0);
      co_return;
  }
}

Controller::AdminResult Controller::admin_create_cq(const SubmissionEntry& sqe) {
  const auto qid = static_cast<std::uint16_t>(sqe.cdw10 & 0xFFFF);
  const auto qsize = static_cast<std::uint16_t>((sqe.cdw10 >> 16) + 1);
  const bool pc = (sqe.cdw11 & 1u) != 0;
  const bool ien = (sqe.cdw11 & 2u) != 0;
  const auto iv = static_cast<std::uint16_t>(sqe.cdw11 >> 16);
  if (qid == 0 || qid > granted_io_queues_) return {kScInvalidQueueId, 0};
  if (cqs_[qid].valid) return {kScInvalidQueueId, 0};
  if (qsize < 2 || qsize > cfg_.max_queue_entries) return {kScInvalidQueueSize, 0};
  if (!pc || sqe.prp1 == 0 || sqe.prp1 % kPageSize != 0) return {kScInvalidField, 0};
  if (iv >= kMsixVectors) return {kScInvalidInterruptVector, 0};
  CqState& cq = cqs_[qid];
  cq.valid = true;
  cq.base = sqe.prp1;
  cq.size = qsize;
  cq.tail = cq.head = 0;
  cq.phase = true;
  cq.irq_enabled = ien;
  cq.irq_vector = iv;
  cq.space->reset();
  NVS_LOG(debug, "nvme") << "created IO CQ " << qid << " size " << qsize;
  return {};
}

Controller::AdminResult Controller::admin_create_sq(const SubmissionEntry& sqe,
                                                    std::uint64_t gen) {
  const auto qid = static_cast<std::uint16_t>(sqe.cdw10 & 0xFFFF);
  const auto qsize = static_cast<std::uint16_t>((sqe.cdw10 >> 16) + 1);
  const bool pc = (sqe.cdw11 & 1u) != 0;
  const auto qprio = static_cast<std::uint8_t>((sqe.cdw11 >> 1) & 0x3);
  const auto cqid = static_cast<std::uint16_t>(sqe.cdw11 >> 16);
  if (qid == 0 || qid > granted_io_queues_) return {kScInvalidQueueId, 0};
  if (sqs_[qid].valid) return {kScInvalidQueueId, 0};
  if (qsize < 2 || qsize > cfg_.max_queue_entries) return {kScInvalidQueueSize, 0};
  if (cqid == 0 || cqid >= cfg_.max_queue_pairs || !cqs_[cqid].valid) {
    return {kScInvalidQueueId, 0};  // completion queue invalid
  }
  if (!pc || sqe.prp1 == 0 || sqe.prp1 % kPageSize != 0) return {kScInvalidField, 0};
  SqState& sq = sqs_[qid];
  sq.valid = true;
  sq.base = sqe.prp1;
  sq.size = qsize;
  sq.head = sq.tail = 0;
  sq.cqid = cqid;
  sq.prio = qprio;  // consulted only when CC.AMS latched WRR
  sq.retry_not_before = 0;
  (void)gen;  // the central arbiter picks the queue up at its first doorbell
  NVS_LOG(debug, "nvme") << "created IO SQ " << qid << " size " << qsize << " -> CQ " << cqid
                         << " prio " << static_cast<int>(qprio);
  return {};
}

Controller::AdminResult Controller::admin_delete_sq(const SubmissionEntry& sqe) {
  const auto qid = static_cast<std::uint16_t>(sqe.cdw10 & 0xFFFF);
  if (qid == 0 || qid >= cfg_.max_queue_pairs || !sqs_[qid].valid) {
    return {kScInvalidQueueId, 0};
  }
  sqs_[qid].valid = false;
  sqs_[qid].retry_not_before = 0;
  return {};
}

Controller::AdminResult Controller::admin_delete_cq(const SubmissionEntry& sqe) {
  const auto qid = static_cast<std::uint16_t>(sqe.cdw10 & 0xFFFF);
  if (qid == 0 || qid >= cfg_.max_queue_pairs || !cqs_[qid].valid) {
    return {kScInvalidQueueId, 0};
  }
  for (std::uint16_t s = 1; s < cfg_.max_queue_pairs; ++s) {
    if (sqs_[s].valid && sqs_[s].cqid == qid) {
      return {kScInvalidQueueDeletion, 0};  // still has an attached SQ
    }
  }
  cqs_[qid].valid = false;
  cqs_[qid].space->set();
  return {};
}

Controller::AdminResult Controller::admin_set_features(const SubmissionEntry& sqe) {
  const auto fid = static_cast<FeatureId>(sqe.cdw10 & 0xFF);
  if (fid == FeatureId::number_of_queues) {
    const auto nsq_req = static_cast<std::uint16_t>((sqe.cdw11 & 0xFFFF) + 1);
    const auto ncq_req = static_cast<std::uint16_t>((sqe.cdw11 >> 16) + 1);
    const auto ceiling = static_cast<std::uint16_t>(cfg_.max_queue_pairs - 1);
    const std::uint16_t granted_sq = std::min(nsq_req, ceiling);
    const std::uint16_t granted_cq = std::min(ncq_req, ceiling);
    granted_io_queues_ = std::min(granted_sq, granted_cq);
    const std::uint32_t dw0 = static_cast<std::uint32_t>(granted_sq - 1) |
                              (static_cast<std::uint32_t>(granted_cq - 1) << 16);
    return {kScSuccess, dw0};
  }
  if (fid == FeatureId::arbitration) {
    // Arbitration burst (2^AB commands per I/O-queue turn; AB = 7 means no
    // limit) plus the WRR class weights. Weight fields are 0-based per spec
    // (weight = field + 1), so even an all-zero CDW11 leaves every class one
    // turn per round — no class can be programmed into starvation. Credits
    // reset so new weights take effect on the next arbitration round; under
    // plain round-robin the weights are latched but unused.
    arb_burst_log2_ = static_cast<std::uint8_t>(sqe.cdw11 & 0x7);
    lpw_ = static_cast<std::uint8_t>((sqe.cdw11 >> 8) & 0xFF);
    mpw_ = static_cast<std::uint8_t>((sqe.cdw11 >> 16) & 0xFF);
    hpw_ = static_cast<std::uint8_t>((sqe.cdw11 >> 24) & 0xFF);
    wrr_credits_.fill(0);
    return {kScSuccess, 0};
  }
  return {kScInvalidField, 0};
}

Controller::AdminResult Controller::admin_get_features(const SubmissionEntry& sqe) {
  const auto fid = static_cast<FeatureId>(sqe.cdw10 & 0xFF);
  if (fid == FeatureId::number_of_queues) {
    if (granted_io_queues_ == 0) return {kScSuccess, 0};
    const std::uint32_t dw0 = static_cast<std::uint32_t>(granted_io_queues_ - 1) |
                              (static_cast<std::uint32_t>(granted_io_queues_ - 1) << 16);
    return {kScSuccess, dw0};
  }
  if (fid == FeatureId::arbitration) {
    const std::uint32_t dw0 = static_cast<std::uint32_t>(arb_burst_log2_) |
                              (static_cast<std::uint32_t>(lpw_) << 8) |
                              (static_cast<std::uint32_t>(mpw_) << 16) |
                              (static_cast<std::uint32_t>(hpw_) << 24);
    return {kScSuccess, dw0};
  }
  return {kScInvalidField, 0};
}

// --- I/O commands -------------------------------------------------------------------------

sim::Duration Controller::media_latency(IoOpcode op, std::uint32_t nblocks) {
  sim::Duration base = 0;
  switch (op) {
    case IoOpcode::read: base = cfg_.service.read_media_ns; break;
    case IoOpcode::write:
    case IoOpcode::write_zeroes: base = cfg_.service.write_media_ns; break;
    case IoOpcode::flush:
    case IoOpcode::dataset_management: return cfg_.service.flush_ns;
    case IoOpcode::vendor_scrub: break;  // charged as a read by its caller
  }
  if (nblocks > 8) {
    base += static_cast<sim::Duration>(nblocks - 8) * cfg_.service.per_block_ns;
  }
  double scale = rng_.lognormal(1.0, cfg_.service.jitter_sigma);
  if (rng_.chance(cfg_.service.tail_probability)) scale *= cfg_.service.tail_multiplier;
  return static_cast<sim::Duration>(static_cast<double>(base) * scale);
}

sim::Task Controller::run_io(std::uint16_t qid, SubmissionEntry sqe,
                             std::uint16_t sq_head_after, std::uint64_t gen) {
  const auto op = static_cast<IoOpcode>(sqe.opcode);

  if (fault::enabled()) {
    const auto decision = fault::Injector::global().on_ctrl_command(qid, sqe.cid);
    if (decision.inject && decision.fatal) {
      NVS_LOG(error, "nvme") << "injected fatal controller error (q" << qid << " cid "
                             << sqe.cid << ")";
      disable_controller(/*fatal=*/true);
      co_return;
    }
    if (decision.inject) {
      co_await sim::delay(engine_, cfg_.service.cmd_fixed_ns);
      if (gen != generation_) co_return;
      complete(qid, sq_head_after, sqe.cid, kScInternalError, 0, gen, 0);
      co_return;
    }
  }

  if (op == IoOpcode::flush) {
    ++stats_.io_flushes;
    co_await sim::delay(engine_, cfg_.service.cmd_fixed_ns + media_latency(op, 0));
    if (gen != generation_) co_return;
    complete(qid, sq_head_after, sqe.cid, kScSuccess, 0, gen, 0);
    co_return;
  }
  if (op != IoOpcode::read && op != IoOpcode::write && op != IoOpcode::write_zeroes &&
      op != IoOpcode::dataset_management && op != IoOpcode::vendor_scrub) {
    complete(qid, sq_head_after, sqe.cid, kScInvalidOpcode, 0, gen, 0);
    co_return;
  }
  if (sqe.nsid != 1) {
    complete(qid, sq_head_after, sqe.cid, kScInvalidNamespace, 0, gen, 0);
    co_return;
  }

  if (op == IoOpcode::dataset_management) {
    // Fetch the range descriptors (the command's data payload), then
    // deallocate each range if the attribute asks for it.
    const std::uint32_t nr = (sqe.cdw10 & 0xFF) + 1;
    auto sg = co_await walk_prps(sqe.prp1, sqe.prp2, nr * sizeof(DsmRange));
    if (gen != generation_) co_return;
    if (!sg) {
      complete(qid, sq_head_after, sqe.cid, kScInvalidField, 0, gen, 0);
      co_return;
    }
    auto ranges_raw = co_await fabric()->read_sg(dma_initiator(), *sg);
    if (gen != generation_) co_return;
    if (!ranges_raw) {
      complete(qid, sq_head_after, sqe.cid, kScDataTransferError, 0, gen, 0);
      co_return;
    }
    co_await sim::delay(engine_, cfg_.service.cmd_fixed_ns + cfg_.service.flush_ns);
    if (gen != generation_) co_return;
    std::uint16_t status = kScSuccess;
    if ((sqe.cdw11 & kDsmDeallocate) != 0) {
      for (std::uint32_t r = 0; r < nr; ++r) {
        const auto range = load_pod<DsmRange>(*ranges_raw, r * sizeof(DsmRange));
        if (range.nlb == 0) continue;
        if (Status st = store_.write_zeroes(range.slba, range.nlb); !st) {
          status = kScLbaOutOfRange;
          break;
        }
      }
    }
    complete(qid, sq_head_after, sqe.cid, status, 0, gen, 0);
    co_return;
  }

  const std::uint64_t slba =
      static_cast<std::uint64_t>(sqe.cdw10) | (static_cast<std::uint64_t>(sqe.cdw11) << 32);
  const std::uint32_t nblocks = (sqe.cdw12 & 0xFFFF) + 1;
  const std::uint64_t bytes = static_cast<std::uint64_t>(nblocks) * store_.block_size();
  const std::uint64_t mdts_bytes = 32 * kPageSize;  // matches ControllerInfo::mdts_pages_log2
  // Overflow-safe: slba near UINT64_MAX must not wrap past the capacity
  // check (nblocks <= 65536, so a wrapped sum is always smaller than slba).
  if (slba + nblocks > store_.capacity_blocks() || slba + nblocks < slba) {
    complete(qid, sq_head_after, sqe.cid, kScLbaOutOfRange, 0, gen, 0);
    co_return;
  }
  if (op != IoOpcode::vendor_scrub && bytes > mdts_bytes) {
    complete(qid, sq_head_after, sqe.cid, kScInvalidField, 0, gen, 0);
    co_return;
  }

  if (op == IoOpcode::vendor_scrub) {
    // Background-scrub range verify: walk stored tuples against stored
    // data at media-read cost, no host DMA. DW0 reports the mismatch
    // count; any mismatch completes with Guard Check Error.
    co_await channels_->acquire();
    co_await sim::delay(engine_,
                        cfg_.service.cmd_fixed_ns + media_latency(IoOpcode::read, nblocks));
    channels_->release();
    if (gen != generation_) co_return;
    auto mismatches = store_.verify_stored_pi(slba, nblocks);
    if (!mismatches) {
      complete(qid, sq_head_after, sqe.cid, kScInternalError, 0, gen, 0);
      co_return;
    }
    if (store_.pi_enabled()) {
      auto& istats = integrity::stats();
      istats.blocks_scrubbed += nblocks;
      istats.scrub_errors += *mismatches;
    }
    complete(qid, sq_head_after, sqe.cid,
             *mismatches == 0 ? kScSuccess : kScGuardCheckError,
             static_cast<std::uint32_t>(*mismatches), gen, 0);
    co_return;
  }

  if (op == IoOpcode::write_zeroes) {
    co_await channels_->acquire();
    co_await sim::delay(engine_, cfg_.service.cmd_fixed_ns + media_latency(op, nblocks));
    channels_->release();
    if (gen != generation_) co_return;
    (void)store_.write_zeroes(slba, nblocks);
    complete(qid, sq_head_after, sqe.cid, kScSuccess, 0, gen, 0);
    co_return;
  }

  if (op == IoOpcode::read) {
    ++stats_.io_reads;
    stats_.bytes_read += bytes;
    const sim::Time media_begin = engine_.now();
    co_await channels_->acquire();
    if (gen != generation_) {
      channels_->release();
      co_return;
    }
    co_await sim::delay(engine_, cfg_.service.cmd_fixed_ns + media_latency(op, nblocks));
    channels_->release();
    if (gen != generation_) co_return;
    trace_io_span(qid, sqe.cid, obs::Phase::media, media_begin, engine_.now());

    auto data = store_.read(slba, nblocks);
    if (!data) {
      complete(qid, sq_head_after, sqe.cid, kScInternalError, 0, gen, 0);
      co_return;
    }
    if (store_.pi_enabled() &&
        (sqe.cdw12 & (kPrinfoPrchkGuard | kPrinfoPrchkApp | kPrinfoPrchkRef)) != 0) {
      auto& istats = integrity::stats();
      const integrity::PiCheckMask mask{(sqe.cdw12 & kPrinfoPrchkGuard) != 0,
                                        (sqe.cdw12 & kPrinfoPrchkApp) != 0,
                                        (sqe.cdw12 & kPrinfoPrchkRef) != 0};
      for (std::uint32_t i = 0; i < nblocks; ++i) {
        const std::uint64_t lba = slba + i;
        auto pi = store_.read_pi(lba);
        if (!pi) continue;  // deallocated block: checks disabled per spec
        const auto block = ConstByteSpan(*data).subspan(
            static_cast<std::size_t>(i) * store_.block_size(), store_.block_size());
        ++istats.pi_verified;
        const integrity::PiCheck check = integrity::verify_pi(*pi, block, lba, mask);
        if (check == integrity::PiCheck::ok) continue;
        std::uint16_t status = kScGuardCheckError;
        if (check == integrity::PiCheck::guard_mismatch) {
          ++istats.guard_errors;
        } else if (check == integrity::PiCheck::app_tag_mismatch) {
          ++istats.app_tag_errors;
          status = kScAppTagCheckError;
        } else {
          ++istats.ref_tag_errors;
          status = kScRefTagCheckError;
        }
        complete(qid, sq_head_after, sqe.cid, status, 0, gen, 0);
        co_return;
      }
    }
    auto sg = co_await walk_prps(sqe.prp1, sqe.prp2, bytes);
    if (gen != generation_) co_return;
    if (!sg) {
      complete(qid, sq_head_after, sqe.cid, kScInvalidField, 0, gen, 0);
      co_return;
    }
    auto arrival = fabric()->write_sg(dma_initiator(), *sg, std::move(*data));
    if (!arrival) {
      complete(qid, sq_head_after, sqe.cid, kScDataTransferError, 0, gen, 0);
      co_return;
    }
    trace_io_span(qid, sqe.cid, obs::Phase::data_dma, engine_.now(), *arrival);
    // PCIe posted ordering: the CQE travels the same path after the data,
    // so the host cannot observe the completion before the data.
    complete(qid, sq_head_after, sqe.cid, kScSuccess, 0, gen, *arrival);
    co_return;
  }

  // Write: fetch data from host memory (a non-posted DMA read across the
  // fabric — on a remote queue this round trip is why the paper measures a
  // larger remote-write delta than remote-read), then commit to media.
  ++stats_.io_writes;
  stats_.bytes_written += bytes;
  auto sg = co_await walk_prps(sqe.prp1, sqe.prp2, bytes);
  if (gen != generation_) co_return;
  if (!sg) {
    complete(qid, sq_head_after, sqe.cid, kScInvalidField, 0, gen, 0);
    co_return;
  }
  const sim::Time dma_begin = engine_.now();
  auto data = co_await fabric()->read_sg(dma_initiator(), *sg);
  if (gen != generation_) co_return;
  if (!data) {
    complete(qid, sq_head_after, sqe.cid, kScDataTransferError, 0, gen, 0);
    co_return;
  }
  trace_io_span(qid, sqe.cid, obs::Phase::data_dma, dma_begin, engine_.now());
  const sim::Time media_begin = engine_.now();
  co_await channels_->acquire();
  if (gen != generation_) {
    channels_->release();
    co_return;
  }
  co_await sim::delay(engine_, cfg_.service.cmd_fixed_ns + media_latency(op, nblocks));
  channels_->release();
  if (gen != generation_) co_return;
  trace_io_span(qid, sqe.cid, obs::Phase::media, media_begin, engine_.now());
  if (Status st = store_.write(slba, nblocks, *data); !st) {
    complete(qid, sq_head_after, sqe.cid, kScInternalError, 0, gen, 0);
    co_return;
  }
  if (store_.pi_enabled() && (sqe.cdw12 & kPrinfoPract) != 0) {
    // PRACT: the controller generates the DIF tuple over the data it
    // received. If the payload was corrupted in flight, the tuple seals the
    // corrupted bytes — end-to-end write protection needs the host-side
    // verify (driver pi_verify), exactly as with real inline metadata.
    auto& istats = integrity::stats();
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      const std::uint64_t lba = slba + i;
      const auto block = ConstByteSpan(*data).subspan(
          static_cast<std::size_t>(i) * store_.block_size(), store_.block_size());
      store_.write_pi(lba, integrity::generate_pi(block, lba));
      ++istats.pi_generated;
    }
  }
  complete(qid, sq_head_after, sqe.cid, kScSuccess, 0, gen, 0);
}

// --- PRP walking -----------------------------------------------------------------------------

sim::Future<Result<std::vector<fabric::SgEntry>>> Controller::walk_prps(std::uint64_t prp1,
                                                                      std::uint64_t prp2,
                                                                      std::uint64_t total) {
  sim::Promise<Result<std::vector<fabric::SgEntry>>> promise(engine_);
  walk_prps_task(promise, prp1, prp2, total);
  return promise.future();
}

sim::Task Controller::walk_prps_task(sim::Promise<Result<std::vector<fabric::SgEntry>>> promise,
                                     std::uint64_t prp1, std::uint64_t prp2,
                                     std::uint64_t total) {
  std::vector<fabric::SgEntry> sg;
  if (total == 0) {
    promise.set(std::move(sg));
    co_return;
  }
  if (prp1 == 0 || prp1 % 4 != 0) {
    promise.set(Status(Errc::invalid_argument, "PRP1 null or not dword-aligned"));
    co_return;
  }
  const std::uint64_t off1 = prp1 % kPageSize;
  const std::uint64_t first = std::min(total, kPageSize - off1);
  sg.push_back({prp1, static_cast<std::uint32_t>(first)});
  std::uint64_t remaining = total - first;
  if (remaining == 0) {
    promise.set(std::move(sg));
    co_return;
  }
  if (remaining <= kPageSize) {
    // PRP2 is the second (and last) data page; must have offset 0.
    if (prp2 == 0 || prp2 % kPageSize != 0) {
      promise.set(Status(Errc::invalid_argument, "PRP2 null or not page-aligned"));
      co_return;
    }
    sg.push_back({prp2, static_cast<std::uint32_t>(remaining)});
    promise.set(std::move(sg));
    co_return;
  }
  // PRP2 points to a PRP list. With MDTS = 128 KiB a single list page always
  // suffices (<= 31 entries), so chained lists are rejected as invalid.
  if (prp2 == 0 || prp2 % 8 != 0) {
    promise.set(Status(Errc::invalid_argument, "PRP list pointer misaligned"));
    co_return;
  }
  const std::uint64_t entries_needed = div_ceil(remaining, kPageSize);
  const std::uint64_t entries_in_page = (kPageSize - prp2 % kPageSize) / 8;
  if (entries_needed > entries_in_page) {
    promise.set(Status(Errc::invalid_argument, "PRP list would chain (exceeds MDTS model)"));
    co_return;
  }
  // Fetching the PRP list is itself a DMA read and costs simulated time.
  auto list = co_await fabric()->read(dma_initiator(), prp2,
                                      static_cast<std::size_t>(entries_needed) * 8);
  if (!list) {
    promise.set(list.status());
    co_return;
  }
  for (std::uint64_t i = 0; i < entries_needed; ++i) {
    const auto entry = load_pod<std::uint64_t>(*list, static_cast<std::size_t>(i) * 8);
    if (entry == 0 || entry % kPageSize != 0) {
      promise.set(Status(Errc::invalid_argument, "PRP list entry not page-aligned"));
      co_return;
    }
    const std::uint64_t len = std::min(remaining, kPageSize);
    sg.push_back({entry, static_cast<std::uint32_t>(len)});
    remaining -= len;
  }
  promise.set(std::move(sg));
}

}  // namespace nvmeshare::nvme
