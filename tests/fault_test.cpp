// Deterministic fault injection & recovery (docs/faults.md).
//
// Every FaultKind gets at least one test that (a) triggers the fault from a
// parsed plan, (b) observes the matching detection path (deadline, CSTS
// watchdog, heartbeat reaper, ...), and (c) proves the stack recovered by
// passing verified I/O afterwards. Plans are seeded, so each test is exactly
// reproducible.
#include <gtest/gtest.h>

#include <string_view>

#include "fault/fault.hpp"
#include "integrity/integrity.hpp"
#include "nvmeof/initiator.hpp"
#include "nvmeof/target.hpp"
#include "pcie/fabric.hpp"
#include "test_util.hpp"

namespace nvmeshare {
namespace {

using namespace testutil;

// RAII around the process-global injector: configure() must run BEFORE the
// scenario is built (drivers register crash handlers at construction only
// when fault::enabled()), arm() AFTER (timed faults are relative to arm
// time), and disarm() must run even when an ASSERT bails out of the test.
class Chaos {
 public:
  explicit Chaos(std::string_view plan_text) {
    auto plan = fault::parse_plan(plan_text);
    EXPECT_TRUE(plan.has_value()) << plan.status().to_string();
    if (plan) fault::Injector::global().configure(std::move(*plan));
  }
  ~Chaos() { fault::Injector::global().disarm(); }
  Chaos(const Chaos&) = delete;
  Chaos& operator=(const Chaos&) = delete;

  void arm(Testbed& tb) {
    pcie::Fabric* fab = &tb.fabric();
    fault::Injector::global().arm(
        tb.engine(), {.set_ntb_link = [fab](std::uint32_t host, bool up) {
          (void)fab->set_ntb_link(host, up);
        }});
  }

  // The injector is process-global, so its counters accumulate across tests
  // in one binary; report deltas against the value at configure() time.
  [[nodiscard]] std::uint64_t posted_drops() const {
    return fault::Injector::global().stats().posted_drops.value() - base_.posted_drops;
  }
  [[nodiscard]] std::uint64_t posted_delays() const {
    return fault::Injector::global().stats().posted_delays.value() - base_.posted_delays;
  }
  [[nodiscard]] std::uint64_t link_downs() const {
    return fault::Injector::global().stats().link_downs.value() - base_.link_downs;
  }
  [[nodiscard]] std::uint64_t link_ups() const {
    return fault::Injector::global().stats().link_ups.value() - base_.link_ups;
  }
  [[nodiscard]] std::uint64_t host_crashes() const {
    return fault::Injector::global().stats().host_crashes.value() - base_.host_crashes;
  }
  [[nodiscard]] std::uint64_t ctrl_errors() const {
    return fault::Injector::global().stats().ctrl_errors.value() - base_.ctrl_errors;
  }
  [[nodiscard]] std::uint64_t capsule_drops() const {
    return fault::Injector::global().stats().capsule_drops.value() - base_.capsule_drops;
  }
  [[nodiscard]] std::uint64_t bit_flips() const {
    return fault::Injector::global().stats().bit_flips.value() - base_.bit_flips;
  }
  [[nodiscard]] std::uint64_t torn_writes() const {
    return fault::Injector::global().stats().torn_writes.value() - base_.torn_writes;
  }
  [[nodiscard]] std::uint64_t stale_reads() const {
    return fault::Injector::global().stats().stale_reads.value() - base_.stale_reads;
  }

 private:
  struct Baseline {
    std::uint64_t posted_drops = 0;
    std::uint64_t posted_delays = 0;
    std::uint64_t link_downs = 0;
    std::uint64_t link_ups = 0;
    std::uint64_t host_crashes = 0;
    std::uint64_t ctrl_errors = 0;
    std::uint64_t capsule_drops = 0;
    std::uint64_t bit_flips = 0;
    std::uint64_t torn_writes = 0;
    std::uint64_t stale_reads = 0;
  };
  Baseline base_ = [] {
    const auto& s = fault::Injector::global().stats();
    return Baseline{s.posted_drops.value(), s.posted_delays.value(),
                    s.link_downs.value(),  s.link_ups.value(),
                    s.host_crashes.value(), s.ctrl_errors.value(),
                    s.capsule_drops.value(), s.bit_flips.value(),
                    s.torn_writes.value(), s.stale_reads.value()};
  }();
};

/// Client config with the recovery machinery switched on (it is off by
/// default so fault-free runs keep the exact seed instruction stream).
driver::Client::Config recovering_client() {
  driver::Client::Config cc;
  cc.cmd_timeout_ns = 500'000;  // 500 us per-command deadline
  cc.cmd_retry_limit = 3;
  cc.retry_backoff_ns = 50'000;
  return cc;
}

// --- plan DSL ---------------------------------------------------------------------

TEST(FaultPlan, ParsesTheDocumentedGrammar) {
  auto plan = fault::parse_plan(
      "seed=7;drop_posted_write:src=1,class=bar,nth=3;"
      "ntb_link_down:host=1,at=2ms,for=500us;"
      "ctrl_error:qid=2,cid=17,nth=1,fatal=1;"
      "delay_posted_write:dst=0,prob=0.5,extra=10us,count=0;"
      "host_crash:host=2,at=1ms;drop_capsule:nth=4,count=2");
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  EXPECT_EQ(plan->seed, 7u);
  ASSERT_EQ(plan->faults.size(), 6u);

  const auto& drop = plan->faults[0];
  EXPECT_EQ(drop.kind, fault::FaultKind::drop_posted_write);
  EXPECT_EQ(drop.src_host, 1u);
  EXPECT_EQ(drop.write_class, fault::WriteClass::bar);
  EXPECT_EQ(drop.nth, 3u);

  const auto& link = plan->faults[1];
  EXPECT_EQ(link.kind, fault::FaultKind::ntb_link_down);
  EXPECT_EQ(link.at, 2'000'000);
  EXPECT_EQ(link.duration, 500'000);

  const auto& ctrl = plan->faults[2];
  EXPECT_EQ(ctrl.qid, 2u);
  EXPECT_EQ(ctrl.cid, 17u);
  EXPECT_TRUE(ctrl.fatal);

  const auto& delay = plan->faults[3];
  EXPECT_EQ(delay.dst_host, 0u);
  EXPECT_DOUBLE_EQ(delay.probability, 0.5);
  EXPECT_EQ(delay.extra_ns, 10'000);
  EXPECT_EQ(delay.count, 0u);  // unlimited
}

TEST(FaultPlan, RejectsUnknownKindsAndKeys) {
  EXPECT_FALSE(fault::parse_plan("meteor_strike:at=1ms").has_value());
  EXPECT_FALSE(fault::parse_plan("host_crash:planet=3").has_value());
  EXPECT_FALSE(fault::parse_plan("drop_posted_write:class=tcp").has_value());
}

// --- time-window trigger (from= / until=) -----------------------------------------

TEST(FaultPlan, ParsesWindowsAndRejectsEmptyOnes) {
  auto plan = fault::parse_plan("drop_posted_write:from=1ms,until=2ms;"
                                "delay_posted_write:extra=5us,nth=2,from=500us,until=3ms");
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  const auto& storm = plan->faults[0];
  EXPECT_EQ(storm.window_start, 1'000'000);
  EXPECT_EQ(storm.window_end, 2'000'000);
  // A window-only trigger is a storm: count defaults to unlimited, so it
  // hits every in-window op, not just the first.
  EXPECT_EQ(storm.count, 0u);
  // With nth present the usual once-by-default budget stays.
  EXPECT_EQ(plan->faults[1].count, 1u);

  EXPECT_FALSE(fault::parse_plan("drop_posted_write:from=2ms,until=2ms").has_value());
  EXPECT_FALSE(fault::parse_plan("drop_posted_write:from=3ms,until=1ms").has_value());
}

TEST(FaultWindow, StormFiresOnEveryInWindowOpOnly) {
  sim::Engine eng;
  auto plan = fault::parse_plan("seed=3;drop_posted_write:from=1ms,until=2ms");
  ASSERT_TRUE(plan.has_value());
  auto& inj = fault::Injector::global();
  inj.configure(std::move(*plan));
  inj.arm(eng, {});

  EXPECT_FALSE(inj.on_posted_write(0, 1, false, 64).drop) << "before the window";
  eng.run_until(1'500'000);
  EXPECT_TRUE(inj.on_posted_write(0, 1, false, 64).drop);
  EXPECT_TRUE(inj.on_posted_write(0, 1, false, 64).drop) << "a storm hits every op";
  eng.run_until(2'000'000);
  EXPECT_FALSE(inj.on_posted_write(0, 1, false, 64).drop) << "the end bound is exclusive";
  inj.disarm();
}

TEST(FaultWindow, NthCountsInWindowOpsOnly) {
  sim::Engine eng;
  auto plan =
      fault::parse_plan("seed=3;delay_posted_write:extra=5us,nth=2,from=1ms,until=3ms");
  ASSERT_TRUE(plan.has_value());
  auto& inj = fault::Injector::global();
  inj.configure(std::move(*plan));
  inj.arm(eng, {});

  // Out-of-window traffic must not advance the nth counter.
  EXPECT_EQ(inj.on_posted_write(0, 1, false, 64).extra_ns, 0);
  EXPECT_EQ(inj.on_posted_write(0, 1, false, 64).extra_ns, 0);
  eng.run_until(1'200'000);
  EXPECT_EQ(inj.on_posted_write(0, 1, false, 64).extra_ns, 0) << "1st in-window op";
  EXPECT_EQ(inj.on_posted_write(0, 1, false, 64).extra_ns, 5'000) << "2nd fires";
  EXPECT_EQ(inj.on_posted_write(0, 1, false, 64).extra_ns, 0) << "count=1 budget spent";
  inj.disarm();
}

TEST(FaultWindow, WindowIsRelativeToArmTime) {
  sim::Engine eng;
  eng.run_until(10'000'000);  // the scenario was built late
  auto plan = fault::parse_plan("seed=3;drop_posted_write:from=0,until=1ms");
  ASSERT_TRUE(plan.has_value());
  auto& inj = fault::Injector::global();
  inj.configure(std::move(*plan));
  EXPECT_FALSE(inj.on_posted_write(0, 1, false, 64).drop) << "not armed yet";
  inj.arm(eng, {});
  EXPECT_TRUE(inj.on_posted_write(0, 1, false, 64).drop)
      << "window opens at arm time, same origin as `at=`";
  eng.run_until(11'000'000);
  EXPECT_FALSE(inj.on_posted_write(0, 1, false, 64).drop);
  inj.disarm();
}

// --- drop_posted_write ------------------------------------------------------------

TEST(FaultRecovery, LostDoorbellIsRetried) {
  // With a host-side SQ the only BAR write on the submit path is the
  // doorbell; dropping it leaves a valid SQE that the device never fetches.
  // The per-command deadline must fire and the retry (re-push + re-ring)
  // must complete the I/O.
  Chaos chaos("seed=3;drop_posted_write:src=1,class=bar,nth=1");
  Testbed tb(small_testbed(2));
  driver::Client::Config cc = recovering_client();
  cc.sq_placement = driver::Client::SqPlacement::host_side;
  auto stack = bring_up(tb, 0, 1, cc);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  chaos.arm(tb);

  write_read_verify(tb, *stack->client, 1, 100, 4096, 0xd00d);
  EXPECT_EQ(chaos.posted_drops(), 1u);
  EXPECT_GE(stack->client->stats().cmd_timeouts.value(), 1u);
  EXPECT_GE(stack->client->stats().cmd_retries.value(), 1u);
}

TEST(FaultRecovery, DelayedCqeIsAbsorbedWithinDeadline) {
  // A CQE arriving 200 us late is under the 500 us deadline: no retry, no
  // recovery, just latency.
  Chaos chaos("seed=3;delay_posted_write:src=0,dst=1,extra=200us,nth=1");
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1, recovering_client());
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  chaos.arm(tb);

  write_read_verify(tb, *stack->client, 1, 200, 4096, 0xcafe);
  EXPECT_EQ(chaos.posted_delays(), 1u);
  EXPECT_EQ(stack->client->stats().cmd_timeouts.value(), 0u);
  EXPECT_EQ(stack->client->stats().qp_recoveries.value(), 0u);
}

TEST(FaultRecovery, LostCqeDrivesQueuePairRecovery) {
  // Drop the device->client completion write outright. With the retry
  // budget at 1, the deadline escalates straight to the queue-pair
  // re-create path (delete + create through the manager's mailbox), after
  // which the command is replayed.
  Chaos chaos("seed=3;drop_posted_write:src=0,dst=1,nth=1");
  Testbed tb(small_testbed(2));
  driver::Client::Config cc = recovering_client();
  cc.cmd_retry_limit = 1;
  auto stack = bring_up(tb, 0, 1, cc);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  chaos.arm(tb);

  const std::uint64_t buf = alloc_pattern_buffer(tb, 1, 4096, 0xbeef);
  auto wr = do_io(tb, *stack->client, {block::Op::write, 300, 8, buf});
  ASSERT_TRUE(wr.has_value()) << wr.status().to_string();
  EXPECT_TRUE(wr->status.is_ok()) << wr->status.to_string();
  EXPECT_EQ(chaos.posted_drops(), 1u);
  EXPECT_GE(stack->client->stats().qp_recoveries.value(), 1u);

  // The rebuilt queue pair carries verified I/O.
  write_read_verify(tb, *stack->client, 1, 400, 8192, 0xfeed);
}

// --- ntb_link_down ----------------------------------------------------------------

TEST(FaultRecovery, LinkOutageHealsWithoutQueueLoss) {
  // A 400 us cable pull in the middle of a verified job: commands caught in
  // the outage time out and retry until the path heals. No queue-pair
  // recovery should be needed and not a single op may fail.
  Chaos chaos("seed=3;ntb_link_down:host=1,at=200us,for=400us");
  Testbed tb(small_testbed(2));
  driver::Client::Config cc = recovering_client();
  cc.cmd_retry_limit = 8;
  auto stack = bring_up(tb, 0, 1, cc);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  chaos.arm(tb);

  workload::JobSpec spec;
  spec.pattern = workload::JobSpec::Pattern::randrw;
  spec.ops = 300;
  spec.queue_depth = 2;
  spec.verify = true;
  auto result = workload::run_job_blocking(tb.cluster(), *stack->client, 1, spec);
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_EQ(result->errors, 0u);
  EXPECT_EQ(result->verify_failures, 0u);
  EXPECT_EQ(chaos.link_downs(), 1u);
  EXPECT_EQ(chaos.link_ups(), 1u);
}

// --- host_crash -------------------------------------------------------------------

TEST(FaultRecovery, ManagerCrashLeavesDataPathAndAttachTimesOut) {
  Chaos chaos("seed=3;host_crash:host=0,at=100us");
  Testbed tb(small_testbed(3));
  auto stack = bring_up(tb, 0, 1, recovering_client());
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  chaos.arm(tb);
  tb.engine().run_for(1_ms);
  EXPECT_EQ(chaos.host_crashes(), 1u);

  // The manager is off the data path (Section V): established clients keep
  // doing verified I/O against the controller.
  write_read_verify(tb, *stack->client, 1, 500, 4096, 0xaaaa);

  // A new client finds the dead manager's mailbox (a crash does not
  // withdraw the metadata segment) and must get a timeout Status within its
  // configured deadline — not hang forever.
  driver::Client::Config impatient;
  impatient.mailbox_timeout_ns = 2_ms;
  const sim::Time t0 = tb.engine().now();
  auto orphan =
      tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(), impatient), 60_s);
  EXPECT_FALSE(orphan.has_value());
  if (!orphan) {
    EXPECT_EQ(orphan.status().code(), Errc::timed_out);
  }
  const sim::Duration elapsed = tb.engine().now() - t0;
  EXPECT_GE(elapsed, 2_ms);
  EXPECT_LT(elapsed, 10_ms) << "attach should fail shortly after its deadline";
}

TEST(FaultRecovery, DeadClientQueuePairIsReaped) {
  // Client on host 2 heartbeats into its mailbox slot, then crashes. The
  // manager's reaper notices the stale beat and deletes the orphaned queue
  // pair so the qid becomes available again.
  Chaos chaos("seed=3;host_crash:host=2,at=300us");
  Testbed tb(small_testbed(4));
  driver::Client::Config cc = recovering_client();
  cc.heartbeat_interval_ns = 50'000;
  driver::Manager::Config mc;
  mc.client_heartbeat_timeout_ns = 300'000;
  mc.reaper_interval_ns = 100'000;
  auto manager = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), mc));
  ASSERT_TRUE(manager.has_value()) << manager.status().to_string();
  auto c1 = tb.wait(driver::Client::attach(tb.service(), 1, tb.device_id(), cc));
  auto c2 = tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(), cc));
  ASSERT_TRUE(c1.has_value() && c2.has_value());
  EXPECT_EQ((*manager)->active_queue_pairs(), 3u);  // admin + 2 clients
  chaos.arm(tb);

  tb.engine().run_for(3_ms);
  EXPECT_EQ(chaos.host_crashes(), 1u);
  EXPECT_GE((*manager)->stats().qps_reaped.value(), 1u);
  EXPECT_EQ((*manager)->active_queue_pairs(), 2u);  // admin + survivor

  // The survivor is untouched and the freed qid can be claimed again.
  write_read_verify(tb, **c1, 1, 600, 4096, 0xbbbb);
  auto c3 = tb.wait(driver::Client::attach(tb.service(), 3, tb.device_id(), cc));
  ASSERT_TRUE(c3.has_value()) << c3.status().to_string();
  write_read_verify(tb, **c3, 3, 700, 4096, 0xcccc);
}

// --- ctrl_error -------------------------------------------------------------------

TEST(FaultRecovery, TransientControllerErrorIsRetried) {
  // The controller completes the first I/O command with Internal Error; the
  // client treats that status as retryable and resubmits.
  Chaos chaos("seed=3;ctrl_error:nth=1");
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1, recovering_client());
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  chaos.arm(tb);

  write_read_verify(tb, *stack->client, 1, 800, 4096, 0xdddd);
  EXPECT_EQ(chaos.ctrl_errors(), 1u);
  EXPECT_GE(stack->client->stats().cmd_retries.value(), 1u);
}

TEST(FaultRecovery, FatalControllerErrorIsResetByWatchdog) {
  // fatal=1 raises CSTS.CFS instead of completing the command. The
  // manager's watchdog polls CSTS, resets and re-initializes the
  // controller, and drops all queue bookkeeping; the client's deadline
  // escalates to queue-pair recovery, which re-creates its pair through the
  // mailbox and replays the command.
  Chaos chaos("seed=3;ctrl_error:nth=1,fatal=1");
  Testbed tb(small_testbed(2));
  driver::Manager::Config mc;
  mc.csts_poll_interval_ns = 100'000;
  driver::Client::Config cc = recovering_client();
  cc.cmd_retry_limit = 2;
  cc.retry_backoff_ns = 100'000;
  auto manager = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), mc));
  ASSERT_TRUE(manager.has_value()) << manager.status().to_string();
  auto client = tb.wait(driver::Client::attach(tb.service(), 1, tb.device_id(), cc));
  ASSERT_TRUE(client.has_value()) << client.status().to_string();
  chaos.arm(tb);

  const std::uint64_t buf = alloc_pattern_buffer(tb, 1, 4096, 0x5151);
  auto wr = tb.wait_plain((*client)->submit({block::Op::write, 900, 8, buf}), 120_s);
  ASSERT_TRUE(wr.has_value()) << wr.status().to_string();
  EXPECT_TRUE(wr->status.is_ok()) << wr->status.to_string();
  EXPECT_EQ(chaos.ctrl_errors(), 1u);
  // A client racing the reset may re-ring a doorbell for its now-deleted
  // queue, which is itself controller-fatal (pinned by nvme_test); the
  // watchdog then resets again. The cycle is bounded by the client's retry
  // budget and always converges once queue recovery finishes.
  EXPECT_GE((*manager)->stats().ctrl_resets.value(), 1u);
  EXPECT_GE((*client)->stats().qp_recoveries.value(), 1u);

  // The reset controller carries verified I/O again.
  write_read_verify(tb, **client, 1, 1000, 8192, 0x5252);
}

// --- drop_capsule (NVMe-oF) -------------------------------------------------------

struct NvmeofStack {
  std::unique_ptr<nvmeof::Target> target;
  std::unique_ptr<nvmeof::Initiator> initiator;
};

Result<NvmeofStack> bring_up_nvmeof(Testbed& tb, nvmeof::Initiator::Config ic) {
  auto target =
      tb.wait(nvmeof::Target::start(tb.cluster(), tb.nvme_endpoint(), tb.network(), {}));
  if (!target) return target.status();
  auto initiator =
      tb.wait(nvmeof::Initiator::connect(tb.cluster(), tb.network(), **target, 1, ic));
  if (!initiator) return initiator.status();
  return NvmeofStack{std::move(*target), std::move(*initiator)};
}

TEST(FaultRecovery, DroppedCapsuleIsResent) {
  // Lose the first two SENDs (the command capsule and its retry); the third
  // attempt goes through. Exercises the initiator's per-capsule deadline.
  Chaos chaos("seed=5;drop_capsule:nth=1,count=2");
  Testbed tb(small_testbed(2));
  nvmeof::Initiator::Config ic;
  ic.capsule_timeout_ns = 300'000;
  ic.capsule_retry_limit = 3;
  ic.retry_backoff_ns = 50'000;
  auto stack = bring_up_nvmeof(tb, ic);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  chaos.arm(tb);

  write_read_verify(tb, *stack->initiator, 1, 1100, 4096, 0x6161);
  EXPECT_EQ(chaos.capsule_drops(), 2u);
  EXPECT_GE(stack->initiator->stats().capsule_retries.value(), 2u);
  EXPECT_EQ(stack->initiator->stats().reconnects.value(), 0u);
}

TEST(FaultRecovery, CapsuleLossEscalatesToReconnectAndReplay) {
  // With the retry budget at 1, losing both the capsule and its retry
  // forces a connection re-establishment; the in-flight command is replayed
  // on the new queue pair.
  Chaos chaos("seed=5;drop_capsule:nth=1,count=2");
  Testbed tb(small_testbed(2));
  nvmeof::Initiator::Config ic;
  ic.capsule_timeout_ns = 300'000;
  ic.capsule_retry_limit = 1;
  auto stack = bring_up_nvmeof(tb, ic);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  chaos.arm(tb);

  write_read_verify(tb, *stack->initiator, 1, 1200, 4096, 0x7171);
  EXPECT_EQ(chaos.capsule_drops(), 2u);
  EXPECT_GE(stack->initiator->stats().reconnects.value(), 1u);

  // The replacement connection keeps working.
  write_read_verify(tb, *stack->initiator, 1, 1300, 8192, 0x7272);
}

// --- corruption kinds (flip_dma_bits / torn_dma_write / stale_read) ---------------

/// PI-formatted namespace plus a client running the full protection
/// pipeline: tuples generated before the bounce copy, PRACT writes, PRCHK
/// reads, and a host-side verify after the DMA lands.
TestbedConfig pi_testbed(std::uint32_t hosts) {
  TestbedConfig cfg = small_testbed(hosts);
  cfg.nvme.pi_enabled = true;
  return cfg;
}

driver::Client::Config pi_client() {
  driver::Client::Config cc = recovering_client();
  cc.pi_verify = true;
  return cc;
}

TEST(PiVerify, BlocksStraddlingPagesOfAnUnalignedBuffer) {
  // The client generates and checks shadow tuples on the user buffer.
  // Writing from an offset buffer, whose blocks 7 and 15 straddle a page
  // boundary, and reading into an aligned one, and the reverse, makes a
  // straddling block read wrong on either side fail its check.
  Testbed tb(pi_testbed(2));
  auto stack = bring_up(tb, 0, 1, pi_client());
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  const std::uint64_t failures = integrity::stats().client_verify_failures.value();
  const std::uint64_t verified = integrity::stats().pi_verified.value();
  constexpr std::size_t kBytes = 16 * 512;
  constexpr std::uint64_t kOffset = 256;  // blocks 7 and 15 straddle a page
  mem::PhysMem& dram = tb.substrate().host_dram(1);

  auto offset_buffer = [&](std::uint64_t seed) {
    const std::uint64_t at = alloc_pattern_buffer(tb, 1, kBytes + 4096, ~seed) + kOffset;
    EXPECT_TRUE(dram.write(at, make_pattern(kBytes, seed)).is_ok());
    return at;
  };
  auto read_matches = [&](std::uint64_t lba, std::uint64_t buf, std::uint64_t seed) {
    auto rd = do_io(tb, *stack->client, {block::Op::read, lba, 16, buf});
    ASSERT_TRUE(rd.has_value()) << rd.status().to_string();
    EXPECT_TRUE(rd->status.is_ok()) << rd->status.to_string();
    EXPECT_TRUE(buffer_matches(tb, 1, buf, kBytes, seed));
  };

  auto w1 = do_io(tb, *stack->client, {block::Op::write, 200, 16, offset_buffer(0x5151)});
  ASSERT_TRUE(w1.has_value() && w1->status.is_ok());
  read_matches(200, alloc_pattern_buffer(tb, 1, kBytes, 1), 0x5151);

  auto w2 = do_io(tb, *stack->client,
                  {block::Op::write, 300, 16, alloc_pattern_buffer(tb, 1, kBytes, 0x5252)});
  ASSERT_TRUE(w2.has_value() && w2->status.is_ok());
  read_matches(300, offset_buffer(2), 0x5252);

  EXPECT_EQ(integrity::stats().client_verify_failures.value(), failures);
  // 32 blocks read back, each checked by the controller and by the client.
  EXPECT_EQ(integrity::stats().pi_verified.value() - verified, 64u);
}

TEST(FaultRecovery, FlippedReadPayloadIsCaughtAndRetried) {
  // The acceptance scenario for end-to-end integrity: flip one bit of the
  // controller's DMA data write on the read return path (the 2nd host0 ->
  // host1 posted write: write CQE is #1, read data is #2). The controller
  // saw intact media so the CQE says success; only the client's shadow-
  // tuple verify can catch it, and a resubmission must heal it.
  Chaos chaos("seed=3;flip_dma_bits:src=0,dst=1,nth=2,count=1");
  Testbed tb(pi_testbed(2));
  auto stack = bring_up(tb, 0, 1, pi_client());
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  chaos.arm(tb);
  const std::uint64_t base = integrity::stats().client_verify_failures.value();

  write_read_verify(tb, *stack->client, 1, 100, 4096, 0xd00d);
  EXPECT_EQ(chaos.bit_flips(), 1u);
  EXPECT_GE(integrity::stats().client_verify_failures.value() - base, 1u);
  EXPECT_GE(stack->client->stats().cmd_retries.value(), 1u);
}

TEST(FaultRecovery, TornReadPayloadIsCaughtAndRetried) {
  // Deliver only a prefix of the read payload. The bounce slot still holds
  // bytes from an earlier transfer, so the tail of the block is garbage;
  // the shadow-tuple guard catches it and the retry re-DMAs the full data.
  // (Writes to two LBAs first so the slot's leftover content differs from
  // the data being read: host0->host1 writes are CQE, CQE, then read data.)
  Chaos chaos("seed=3;torn_dma_write:src=0,dst=1,class=dram,nth=3,count=1");
  Testbed tb(pi_testbed(2));
  auto stack = bring_up(tb, 0, 1, pi_client());
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  chaos.arm(tb);
  const std::uint64_t base = integrity::stats().client_verify_failures.value();

  const std::uint64_t a = alloc_pattern_buffer(tb, 1, 4096, 0xaaaa);
  auto w1 = do_io(tb, *stack->client, {block::Op::write, 100, 8, a});
  ASSERT_TRUE(w1.has_value() && w1->status.is_ok());
  const std::uint64_t b = alloc_pattern_buffer(tb, 1, 4096, 0xbbbb);
  auto w2 = do_io(tb, *stack->client, {block::Op::write, 300, 8, b});
  ASSERT_TRUE(w2.has_value() && w2->status.is_ok());

  const std::uint64_t r = alloc_pattern_buffer(tb, 1, 4096, 0x1111);
  auto rd = do_io(tb, *stack->client, {block::Op::read, 100, 8, r});
  ASSERT_TRUE(rd.has_value()) << rd.status().to_string();
  EXPECT_TRUE(rd->status.is_ok()) << rd->status.to_string();
  EXPECT_TRUE(buffer_matches(tb, 1, r, 4096, 0xaaaa));
  EXPECT_EQ(chaos.torn_writes(), 1u);
  EXPECT_GE(integrity::stats().client_verify_failures.value() - base, 1u);
}

TEST(FaultRecovery, StaleWritePayloadIsDetectedNotRecovered) {
  // Stale DMA read on the write path: the controller fetches zeros instead
  // of the client's bounce data and — with PRACT — seals a valid tuple over
  // the wrong bytes. Controller-side checks can never catch this; the
  // client's shadow tuple flags every subsequent read, and since re-reading
  // returns the same sealed-stale data, the retries exhaust and the read
  // fails. Detection without silent corruption is the contract here.
  Chaos chaos("seed=3;stale_read:src=0,dst=1,nth=1,count=1");
  Testbed tb(pi_testbed(2));
  auto stack = bring_up(tb, 0, 1, pi_client());
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  chaos.arm(tb);
  const std::uint64_t base = integrity::stats().client_verify_failures.value();

  const std::uint64_t w = alloc_pattern_buffer(tb, 1, 4096, 0xfade);
  auto wr = do_io(tb, *stack->client, {block::Op::write, 100, 8, w});
  ASSERT_TRUE(wr.has_value() && wr->status.is_ok());
  EXPECT_EQ(chaos.stale_reads(), 1u);

  const std::uint64_t r = alloc_pattern_buffer(tb, 1, 4096, 0x2222);
  auto rd = do_io(tb, *stack->client, {block::Op::read, 100, 8, r});
  ASSERT_TRUE(rd.has_value()) << rd.status().to_string();
  EXPECT_FALSE(rd->status.is_ok()) << "sealed-stale data must not verify";
  EXPECT_GE(integrity::stats().client_verify_failures.value() - base, 1u);

  // The stack itself is healthy: fresh I/O passes end to end.
  write_read_verify(tb, *stack->client, 1, 500, 4096, 0xfeed);
}

}  // namespace
}  // namespace nvmeshare
