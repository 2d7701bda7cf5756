// Golden pin for the NTB substrate: the fabric-abstraction refactor must not
// change a single transaction on the PCIe/NTB path. The constants below were
// captured from the pre-refactor seed (PR 8 tree) running this exact
// scenario; the refactored NTB substrate has to reproduce them bit-for-bit —
// final simulated clock, every fabric counter, and the job's latency sums.
//
// If this test fails after an intentional change to the NTB latency model or
// driver instruction stream, re-capture by running with
// NVS_PIN_CAPTURE=1 and paste the printed block.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>

#include "fault/fault.hpp"
#include "nvmeof/initiator.hpp"
#include "nvmeof/target.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace nvmeshare {
namespace {

using namespace testutil;

struct PinObservation {
  sim::Time end_time = 0;
  std::uint64_t posted_writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t ntb_translations = 0;
  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;
  sim::Duration read_elapsed = 0;
  sim::Duration write_elapsed = 0;
};

/// The pinned scenario: 2 hosts, manager on the device host, client remote,
/// 64 random reads then 64 random writes (4 KiB, QD1), fixed seeds.
PinObservation run_pinned_scenario() {
  PinObservation obs;
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);
  EXPECT_TRUE(stack.has_value()) << stack.status().to_string();
  if (!stack) return obs;

  workload::JobSpec spec;
  spec.block_bytes = 4096;
  spec.queue_depth = 1;
  spec.ops = 64;
  spec.seed = 2024;

  spec.pattern = workload::JobSpec::Pattern::randread;
  auto rd = workload::run_job_blocking(tb.cluster(), *stack->client, 1, spec);
  EXPECT_TRUE(rd.has_value()) << rd.status().to_string();
  if (rd) {
    EXPECT_EQ(rd->errors, 0u);
    obs.read_ops = rd->ops_completed;
    obs.read_elapsed = rd->elapsed;
  }

  spec.pattern = workload::JobSpec::Pattern::randwrite;
  auto wr = workload::run_job_blocking(tb.cluster(), *stack->client, 1, spec);
  EXPECT_TRUE(wr.has_value()) << wr.status().to_string();
  if (wr) {
    EXPECT_EQ(wr->errors, 0u);
    obs.write_ops = wr->ops_completed;
    obs.write_elapsed = wr->elapsed;
  }

  obs.end_time = tb.engine().now();
  obs.posted_writes = tb.fabric().stats().posted_writes.value();
  obs.reads = tb.fabric().stats().reads.value();
  obs.bytes_written = tb.fabric().stats().bytes_written.value();
  obs.bytes_read = tb.fabric().stats().bytes_read.value();
  obs.ntb_translations = tb.fabric().stats().ntb_translations.value();
  return obs;
}

TEST(FabricPin, NtbPathMatchesPreRefactorSeed) {
  const PinObservation obs = run_pinned_scenario();

  if (std::getenv("NVS_PIN_CAPTURE") != nullptr) {
    std::printf("  constexpr sim::Time kEndTime = %" PRIu64 ";\n"
                "  constexpr std::uint64_t kPostedWrites = %" PRIu64 ";\n"
                "  constexpr std::uint64_t kReads = %" PRIu64 ";\n"
                "  constexpr std::uint64_t kBytesWritten = %" PRIu64 ";\n"
                "  constexpr std::uint64_t kBytesRead = %" PRIu64 ";\n"
                "  constexpr std::uint64_t kNtbTranslations = %" PRIu64 ";\n"
                "  constexpr sim::Duration kReadElapsed = %" PRIu64 ";\n"
                "  constexpr sim::Duration kWriteElapsed = %" PRIu64 ";\n",
                obs.end_time, obs.posted_writes, obs.reads, obs.bytes_written,
                obs.bytes_read, obs.ntb_translations,
                static_cast<std::uint64_t>(obs.read_elapsed),
                static_cast<std::uint64_t>(obs.write_elapsed));
    return;
  }

  // Captured from the pre-refactor seed build (see file comment).
  constexpr sim::Time kEndTime = 22000000;
  constexpr std::uint64_t kPostedWrites = 605;
  constexpr std::uint64_t kReads = 221;
  constexpr std::uint64_t kBytesWritten = 282200;
  constexpr std::uint64_t kBytesRead = 270928;
  constexpr std::uint64_t kNtbTranslations = 647;
  constexpr sim::Duration kReadElapsed = 972660;
  constexpr sim::Duration kWriteElapsed = 1094608;

  EXPECT_EQ(obs.end_time, kEndTime);
  EXPECT_EQ(obs.posted_writes, kPostedWrites);
  EXPECT_EQ(obs.reads, kReads);
  EXPECT_EQ(obs.bytes_written, kBytesWritten);
  EXPECT_EQ(obs.bytes_read, kBytesRead);
  EXPECT_EQ(obs.ntb_translations, kNtbTranslations);
  EXPECT_EQ(obs.read_ops, 64u);
  EXPECT_EQ(obs.write_ops, 64u);
  EXPECT_EQ(obs.read_elapsed, kReadElapsed);
  EXPECT_EQ(obs.write_elapsed, kWriteElapsed);
}

// --- equivalence pins for skipped poll rounds ---------------------------------
//
// The CQ poller and the mailbox scanner sleep through rounds that cannot see
// anything (sim::PollGrid). Each scenario below drives one hazard of that
// rule; its constants were captured from the spinning pollers (the commit
// before PollGrid) with NVS_PIN_CAPTURE=1: final clock, job latency sums,
// and an FNV-1a digest of the non-zero registry metrics, which covers
// nvmeshare.client.poll_rounds. The client-detach row was re-captured once
// detach began to fail the commands still in flight and to keep the
// client's doorbells off the queue pair it releases: before, the job never
// ended, the row stopped the clock 50 us after the detach, and a read
// submitted during the release rang a deleted SQ, which made the controller
// fatal.

struct GridPin {
  sim::Time end_time = 0;
  sim::Duration latency_sum = 0;  ///< sum of every job's read and write samples
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
  std::uint64_t registry_digest = 0;
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return h;
}

TestbedConfig pin_testbed(fabric::SubstrateKind kind, std::uint32_t hosts = 2) {
  TestbedConfig cfg = small_testbed(hosts);
  cfg.substrate = kind;
  return cfg;
}

driver::Client::Config recovering_client() {
  driver::Client::Config cc;
  cc.cmd_timeout_ns = 500'000;
  cc.cmd_retry_limit = 3;
  cc.retry_backoff_ns = 50'000;
  return cc;
}

workload::JobSpec pin_job(workload::JobSpec::Pattern pattern, std::uint32_t qd,
                          std::uint64_t ops) {
  workload::JobSpec spec;
  spec.pattern = pattern;
  spec.block_bytes = 4096;
  spec.queue_depth = qd;
  spec.ops = ops;
  spec.seed = 2024;
  return spec;
}

void add_job(GridPin& pin, const Result<workload::JobResult>& r) {
  EXPECT_TRUE(r.has_value()) << r.status().to_string();
  if (!r) return;
  pin.ops += r->ops_completed;
  pin.errors += r->errors;
  for (const LatencyRecorder* rec : {&r->read_latency, &r->write_latency}) {
    for (const sim::Duration d : rec->samples()) pin.latency_sum += d;
  }
}

void finish(GridPin& pin, Testbed& tb) {
  pin.end_time = tb.engine().now();
  pin.registry_digest = fnv1a(obs::Registry::global().to_table());
}

/// QD1 then QD32 random reads and writes, manager on host 0, client on 1.
GridPin steady(fabric::SubstrateKind kind, std::uint32_t qd) {
  GridPin pin;
  Testbed tb(pin_testbed(kind));
  auto stack = bring_up(tb, 0, 1);
  EXPECT_TRUE(stack.has_value()) << stack.status().to_string();
  if (!stack) return pin;
  for (const auto pattern : {workload::JobSpec::Pattern::randread,
                             workload::JobSpec::Pattern::randwrite}) {
    add_job(pin, workload::run_job_blocking(tb.cluster(), *stack->client, 1,
                                            pin_job(pattern, qd, qd * 16)));
  }
  finish(pin, tb);
  return pin;
}

/// The 5th CQE posted to the client is lost: the only command in flight
/// times out, so the engine goes idle while the poller sleeps, and the
/// retry's kick must restart the poll grid.
GridPin dropped_cqe() {
  GridPin pin;
  auto plan = fault::parse_plan("seed=5;drop_posted_write:dst=1,class=dram,nth=5");
  EXPECT_TRUE(plan.has_value());
  fault::Injector::global().configure(std::move(*plan));
  {
    Testbed tb(pin_testbed(fabric::SubstrateKind::ntb));
    auto stack = bring_up(tb, 0, 1, recovering_client());
    EXPECT_TRUE(stack.has_value()) << stack.status().to_string();
    if (stack) {
      fault::Injector::global().arm(tb.engine(), {});
      add_job(pin, workload::run_job_blocking(
                       tb.cluster(), *stack->client, 1,
                       pin_job(workload::JobSpec::Pattern::randwrite, 1, 32)));
      finish(pin, tb);
    }
  }
  fault::Injector::global().disarm();
  return pin;
}

/// CXL: the client host's port is down for 20 us while its CQEs keep
/// landing in the pool, then comes back up.
GridPin cxl_port_flap() {
  GridPin pin;
  Testbed tb(pin_testbed(fabric::SubstrateKind::cxl));
  auto stack = bring_up(tb, 0, 1, recovering_client());
  EXPECT_TRUE(stack.has_value()) << stack.status().to_string();
  if (!stack) return pin;
  fabric::Substrate* sub = &tb.substrate();
  const sim::Time down = tb.engine().now() + 40'000;
  tb.engine().at(down, [sub]() { (void)sub->set_host_link(1, false); });
  tb.engine().at(down + 20'000, [sub]() { (void)sub->set_host_link(1, true); });
  add_job(pin, workload::run_job_blocking(tb.cluster(), *stack->client, 1,
                                          pin_job(workload::JobSpec::Pattern::randread, 8, 64)));
  finish(pin, tb);
  return pin;
}

/// The mailbox scanner idles for a while, then a client attaches and asks
/// for two tenant shares, one long after the other.
GridPin mailbox_while_asleep(fabric::SubstrateKind kind) {
  GridPin pin;
  Testbed tb(pin_testbed(kind, 3));
  auto manager = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), {}));
  EXPECT_TRUE(manager.has_value()) << manager.status().to_string();
  if (!manager) return pin;
  tb.engine().run_for(77'777);
  auto client = tb.wait(driver::Client::attach(tb.service(), 1, tb.device_id(), {}));
  EXPECT_TRUE(client.has_value()) << client.status().to_string();
  if (!client) return pin;
  tb.engine().run_for(123'457);
  for (std::uint32_t tenant = 1; tenant <= 2; ++tenant) {
    driver::Client::ShareRequest req;
    req.tenant = tenant;
    req.cid_count = 4;
    auto grant = tb.wait((*client)->create_share(req));
    EXPECT_TRUE(grant.has_value()) << grant.status().to_string();
    tb.engine().run_for(31'001);
  }
  auto second = tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(), {}));
  EXPECT_TRUE(second.has_value()) << second.status().to_string();
  finish(pin, tb);
  return pin;
}

/// QD1 reads in flight while the client crashes (or detaches) at an
/// instant its poller sleeps through: at QD1 it sleeps through most of
/// each command.
GridPin stop_while_asleep(bool crash) {
  GridPin pin;
  Testbed tb(pin_testbed(fabric::SubstrateKind::ntb));
  auto stack = bring_up(tb, 0, 1, recovering_client());
  EXPECT_TRUE(stack.has_value()) << stack.status().to_string();
  if (!stack) return pin;
  driver::Client* client = stack->client.get();
  const sim::Time when = tb.engine().now() + 55'003;
  std::optional<sim::Future<Status>> detached;
  tb.engine().at(when, [&]() {
    if (crash) {
      client->crash();
    } else {
      detached = client->detach();
    }
  });
  auto job = workload::run_job(tb.cluster(), *client, 1,
                               pin_job(workload::JobSpec::Pattern::randread, 1, 64));
  // Either stop ends the job: a read still in flight resolves as aborted and
  // the reads after it fail fast, without a doorbell reaching a queue pair
  // the manager deleted (that would make the shared controller fatal).
  add_job(pin, tb.wait(std::move(job)));
  EXPECT_FALSE(tb.controller().is_fatal());
  if (!crash) {
    const std::optional<Status> st = detached ? detached->try_take() : std::nullopt;
    EXPECT_TRUE(st && st->is_ok()) << (st ? st->to_string() : "detach pending");
  }
  finish(pin, tb);
  return pin;
}

/// The NVMe-oF baseline's target polls its NVMe CQ on the same grid: QD1
/// then QD32 random reads and writes, target on host 0, initiator on 1.
GridPin nvmeof_steady(std::uint32_t qd) {
  GridPin pin;
  Testbed tb(pin_testbed(fabric::SubstrateKind::ntb));
  auto target =
      tb.wait(nvmeof::Target::start(tb.cluster(), tb.nvme_endpoint(), tb.network(), {}));
  EXPECT_TRUE(target.has_value()) << target.status().to_string();
  if (!target) return pin;
  auto initiator =
      tb.wait(nvmeof::Initiator::connect(tb.cluster(), tb.network(), **target, 1, {}));
  EXPECT_TRUE(initiator.has_value()) << initiator.status().to_string();
  if (!initiator) return pin;
  for (const auto pattern : {workload::JobSpec::Pattern::randread,
                             workload::JobSpec::Pattern::randwrite}) {
    add_job(pin, workload::run_job_blocking(tb.cluster(), **initiator, 1,
                                            pin_job(pattern, qd, qd * 16)));
  }
  finish(pin, tb);
  return pin;
}

/// The polled local driver (use_interrupts = false): QD1 then QD32 random
/// reads and writes on the device's own host.
GridPin polled_local(std::uint32_t qd) {
  GridPin pin;
  Testbed tb(pin_testbed(fabric::SubstrateKind::ntb, 1));
  driver::LocalDriver::Config cfg;
  cfg.use_interrupts = false;
  auto drv = tb.wait(driver::LocalDriver::start(tb.cluster(), tb.nvme_endpoint(), nullptr, cfg));
  EXPECT_TRUE(drv.has_value()) << drv.status().to_string();
  if (!drv) return pin;
  for (const auto pattern : {workload::JobSpec::Pattern::randread,
                             workload::JobSpec::Pattern::randwrite}) {
    add_job(pin, workload::run_job_blocking(tb.cluster(), **drv, 0,
                                            pin_job(pattern, qd, qd * 16)));
  }
  finish(pin, tb);
  return pin;
}

/// QD1 reads through the NVMe-oF target, which is destroyed at an instant
/// its CQ poller sleeps through: the read in flight is at the device. Its
/// completion never reaches the initiator, so the clock is stopped 1 ms on.
GridPin target_destroyed_while_asleep() {
  GridPin pin;
  Testbed tb(pin_testbed(fabric::SubstrateKind::ntb));
  auto target =
      tb.wait(nvmeof::Target::start(tb.cluster(), tb.nvme_endpoint(), tb.network(), {}));
  EXPECT_TRUE(target.has_value()) << target.status().to_string();
  if (!target) return pin;
  auto initiator =
      tb.wait(nvmeof::Initiator::connect(tb.cluster(), tb.network(), **target, 1, {}));
  EXPECT_TRUE(initiator.has_value()) << initiator.status().to_string();
  if (!initiator) return pin;
  add_job(pin, workload::run_job_blocking(tb.cluster(), **initiator, 1,
                                          pin_job(workload::JobSpec::Pattern::randread, 1, 16)));
  const sim::Time when = tb.engine().now() + 50'001;
  std::unique_ptr<nvmeof::Target>& owner = *target;
  tb.engine().at(when, [&owner]() { owner.reset(); });
  auto job = workload::run_job(tb.cluster(), **initiator, 1,
                               pin_job(workload::JobSpec::Pattern::randread, 1, 64));
  tb.engine().run_until(when + 1'000'000);
  EXPECT_EQ(owner, nullptr);
  EXPECT_FALSE(job.ready());
  finish(pin, tb);
  return pin;
}

struct GridScenario {
  const char* name;
  std::function<GridPin()> run;
  GridPin want;
};

TEST(FabricPin, SkippedPollRoundsMatchSpinningPollers) {
  using fabric::SubstrateKind;
  // Captured from the spinning pollers (see the section comment).
  const GridScenario scenarios[] = {
      {"ntb-qd1", [] { return steady(SubstrateKind::ntb, 1); },
       {22000000, 516907, 32, 0, 0xe84dd984db684b3fULL}},
      {"ntb-qd32", [] { return steady(SubstrateKind::ntb, 32); },
       {22000000, 38060927, 1024, 0, 0x66b97fb3ccd9b079ULL}},
      {"cxl-qd1", [] { return steady(SubstrateKind::cxl, 1); },
       {22000000, 507709, 32, 0, 0x92ee92a3cb3a3c8cULL}},
      {"cxl-qd32", [] { return steady(SubstrateKind::cxl, 32); },
       {22000000, 38033354, 1024, 0, 0x51018cd399e910c5ULL}},
      {"dropped-cqe", dropped_cqe,
       {12000000, 3025061, 32, 0, 0x11320d124e44765eULL}},
      {"cxl-port-flap", cxl_port_flap,
       {12000000, 1408223, 64, 0, 0xf40e2ca40e49530fULL}},
      {"mailbox-ntb", [] { return mailbox_while_asleep(SubstrateKind::ntb); },
       {5263236, 0, 0, 0, 0x0978b079bb940ecbULL}},
      {"mailbox-cxl", [] { return mailbox_while_asleep(SubstrateKind::cxl); },
       {5263236, 0, 0, 0, 0x1ef71665f1a29230ULL}},
      {"client-crash", [] { return stop_while_asleep(true); },
       {3000000, 46023, 64, 61, 0x83de76fea90fdb62ULL}},
      {"client-detach", [] { return stop_while_asleep(false); },
       {3000000, 60958, 64, 60, 0xa90727c46a159919ULL}},
      // Captured from the spinning NVMe-oF target and polled local driver
      // (the commit before they moved onto nvme::CqServicer).
      {"nvmeof-qd1", [] { return nvmeof_steady(1); },
       {22000000, 668198, 32, 0, 0x3913730cf9805b7fULL}},
      {"nvmeof-qd32", [] { return nvmeof_steady(32); },
       {22000000, 38370878, 1024, 0, 0x0375bc60e63319adULL}},
      {"polled-local-qd1", [] { return polled_local(1); },
       {21000000, 371393, 32, 0, 0xc1b84f6ae40a66f0ULL}},
      {"polled-local-qd32", [] { return polled_local(32); },
       {21000000, 37781824, 1024, 0, 0xbfd5e217e8a5b987ULL}},
      {"target-destroyed", target_destroyed_while_asleep,
       {13050001, 325479, 16, 0, 0x953fecdea2a048daULL}},
  };
  const bool capture = std::getenv("NVS_PIN_CAPTURE") != nullptr;
  for (const GridScenario& sc : scenarios) {
    obs::Registry::global().reset_values();
    const GridPin got = sc.run();
    if (capture) {
      std::printf("      {\"%s\", ..., {%" PRId64 ", %" PRId64 ", %" PRIu64 ", %" PRIu64
                  ", 0x%016" PRIx64 "ULL}},\n",
                  sc.name, static_cast<std::int64_t>(got.end_time),
                  static_cast<std::int64_t>(got.latency_sum), got.ops, got.errors,
                  got.registry_digest);
      continue;
    }
    EXPECT_EQ(got.end_time, sc.want.end_time) << sc.name;
    EXPECT_EQ(got.latency_sum, sc.want.latency_sum) << sc.name;
    EXPECT_EQ(got.ops, sc.want.ops) << sc.name;
    EXPECT_EQ(got.errors, sc.want.errors) << sc.name;
    EXPECT_EQ(got.registry_digest, sc.want.registry_digest) << sc.name;
  }
}

}  // namespace
}  // namespace nvmeshare
