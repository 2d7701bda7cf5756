// Substrate-neutrality suite: the same driver stack brought up over both
// interconnect substrates — the paper's PCIe/NTB fabric and the CXL
// pooled-memory model — must attach, move data correctly, and recover from
// faults. Plus the debug-build backdoor seal guard: after bring-up no
// production path may cheat through zero-latency cross-host peek/poke.
#include <gtest/gtest.h>

#include <string>

#include "fabric/substrate.hpp"
#include "fault/fault.hpp"
#include "nvmeof/initiator.hpp"
#include "nvmeof/target.hpp"
#include "test_util.hpp"

namespace nvmeshare {
namespace {

using namespace testutil;

TestbedConfig substrate_testbed(fabric::SubstrateKind kind, std::uint32_t hosts) {
  TestbedConfig cfg = small_testbed(hosts);
  cfg.substrate = kind;
  return cfg;
}

class SubstrateTest : public ::testing::TestWithParam<fabric::SubstrateKind> {
 protected:
  [[nodiscard]] TestbedConfig config(std::uint32_t hosts) const {
    return substrate_testbed(GetParam(), hosts);
  }
};

// --- bring-up and data path --------------------------------------------------------

TEST_P(SubstrateTest, RemoteClientAttachesAndMovesData) {
  Testbed tb(config(2));
  auto stack = bring_up(tb, /*manager_node=*/0, /*client_node=*/1);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();

  // Production steady state: no more backdoor traffic from here on.
  tb.substrate().seal_backdoors();
  write_read_verify(tb, *stack->client, 1, /*lba=*/64, 4096, /*seed=*/0xAB);
  write_read_verify(tb, *stack->client, 1, /*lba=*/1024, 32 * 1024, /*seed=*/0xCD);
  EXPECT_EQ(tb.substrate().stats().backdoor_violations.value(), 0u);
}

TEST_P(SubstrateTest, LocalClientMovesData) {
  Testbed tb(config(1));
  auto stack = bring_up(tb, 0, 0);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  tb.substrate().seal_backdoors();
  write_read_verify(tb, *stack->client, 0, /*lba=*/8, 8192, /*seed=*/0x77);
  EXPECT_EQ(tb.substrate().stats().backdoor_violations.value(), 0u);
}

// The CQ pollers sleep through idle rounds and resume one round before a
// CQE lands (sim::PollGrid). That needs every CQE issued more than one poll
// interval before it lands: for local and remote clients, the NVMe-oF
// target and the polled local driver, at QD1 and QD32.
TEST_P(SubstrateTest, CqEntriesLeadTheirLandingByMoreThanAPollInterval) {
  auto check = [](const sim::PollGrid& grid, const char* who) {
    EXPECT_GT(grid.min_lead(), grid.interval()) << who;
    EXPECT_LT(grid.min_lead(), 10 * grid.interval()) << who << ": CQEs were watched";
  };
  auto run = [](Testbed& tb, block::BlockDevice& dev, smartio::NodeId node) {
    for (const std::uint32_t qd : {1u, 32u}) {
      workload::JobSpec spec;
      spec.pattern = workload::JobSpec::Pattern::randrw;
      spec.block_bytes = 4096;
      spec.queue_depth = qd;
      spec.ops = 256;
      auto job = workload::run_job_blocking(tb.cluster(), dev, node, spec);
      ASSERT_TRUE(job.has_value()) << job.status().to_string();
      EXPECT_EQ(job->errors, 0u);
    }
  };
  {
    Testbed tb(config(2));
    auto mgr = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), {}));
    ASSERT_TRUE(mgr.has_value()) << mgr.status().to_string();
    for (const smartio::NodeId node : {0u, 1u}) {
      auto client = tb.wait(driver::Client::attach(tb.service(), node, tb.device_id(), {}));
      ASSERT_TRUE(client.has_value()) << client.status().to_string();
      run(tb, **client, node);
      const sim::PollGrid* grid = (*client)->cq_poll_grid();
      ASSERT_NE(grid, nullptr);
      check(*grid, node == 0 ? "local client" : "remote client");
    }
  }
  {
    Testbed tb(config(2));
    auto target =
        tb.wait(nvmeof::Target::start(tb.cluster(), tb.nvme_endpoint(), tb.network(), {}));
    ASSERT_TRUE(target.has_value()) << target.status().to_string();
    auto initiator =
        tb.wait(nvmeof::Initiator::connect(tb.cluster(), tb.network(), **target, 1, {}));
    ASSERT_TRUE(initiator.has_value()) << initiator.status().to_string();
    run(tb, **initiator, 1);
    check((*target)->cq_poll_grid(0), "nvme-of target");
  }
  {
    Testbed tb(config(1));
    driver::LocalDriver::Config cfg;
    cfg.use_interrupts = false;
    auto drv = tb.wait(driver::LocalDriver::start(tb.cluster(), tb.nvme_endpoint(), nullptr, cfg));
    ASSERT_TRUE(drv.has_value()) << drv.status().to_string();
    run(tb, **drv, 0);
    const sim::PollGrid* grid = (*drv)->cq_poll_grid();
    ASSERT_NE(grid, nullptr);
    check(*grid, "polled local driver");
  }
}

TEST_P(SubstrateTest, TwoClientsShareOneDevice) {
  Testbed tb(config(3));
  auto mgr = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), {}));
  ASSERT_TRUE(mgr.has_value()) << mgr.status().to_string();
  auto c1 = tb.wait(driver::Client::attach(tb.service(), 1, tb.device_id(), {}));
  ASSERT_TRUE(c1.has_value()) << c1.status().to_string();
  auto c2 = tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(), {}));
  ASSERT_TRUE(c2.has_value()) << c2.status().to_string();

  tb.substrate().seal_backdoors();
  // Disjoint LBA ranges; each client must read back its own pattern.
  write_read_verify(tb, **c1, 1, /*lba=*/0, 16 * 1024, /*seed=*/0x11);
  write_read_verify(tb, **c2, 2, /*lba=*/4096, 16 * 1024, /*seed=*/0x22);
  EXPECT_EQ(tb.substrate().stats().backdoor_violations.value(), 0u);
}

// --- recovery ----------------------------------------------------------------------

// A link flap mid-workload: commands in flight time out, the client runs
// queue-level recovery, and verified I/O passes once the link is back. The
// same plan drives the NTB cable-pull path and the CXL port-down path
// through Substrate::set_host_link.
TEST_P(SubstrateTest, RecoversFromLinkFlap) {
  auto plan = fault::parse_plan("seed=11;ntb_link_down:host=1,at=300us,for=400us");
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  fault::Injector::global().configure(std::move(*plan));

  driver::Client::Config cc;
  cc.cmd_timeout_ns = 500'000;
  cc.cmd_retry_limit = 5;
  cc.retry_backoff_ns = 50'000;

  Testbed tb(config(2));
  auto stack = bring_up(tb, 0, 1, cc);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();

  fabric::Substrate* sub = &tb.substrate();
  fault::Injector::global().arm(tb.engine(),
                                {.set_ntb_link = [sub](std::uint32_t host, bool up) {
                                  (void)sub->set_host_link(host, up);
                                }});

  workload::JobSpec spec;
  spec.name = "linkflap";
  spec.pattern = workload::JobSpec::Pattern::randrw;
  spec.block_bytes = 4096;
  spec.queue_depth = 4;
  spec.ops = 2000;
  spec.seed = 99;
  spec.verify = true;
  auto result = workload::run_job_blocking(tb.cluster(), *stack->client, 1, spec);
  fault::Injector::global().disarm();
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_EQ(result->verify_failures, 0u);

  // The flap actually happened, and the stack survived it.
  write_read_verify(tb, *stack->client, 1, /*lba=*/2048, 4096, /*seed=*/0x5A);
}

// --- payload ownership -------------------------------------------------------------

constexpr std::size_t kSgPages = 16;
constexpr std::size_t kSgBytes = kSgPages * 4096;

/// Sixteen 4 KiB pages of host 0's DRAM listed in reverse, so a 64 KiB
/// scatter write lands out of address order, each page preset to `fill`.
std::vector<fabric::SgEntry> reversed_pages(Testbed& tb, std::byte fill) {
  auto base = tb.cluster().alloc_dram(0, kSgBytes, 4096);
  EXPECT_TRUE(base.has_value());
  std::vector<fabric::SgEntry> sg;
  for (std::size_t p = 0; p < kSgPages; ++p) {
    sg.push_back(fabric::SgEntry{*base + (kSgPages - 1 - p) * 4096, 4096});
  }
  EXPECT_TRUE(tb.substrate().host_dram(0).write(*base, Bytes(kSgBytes, fill)).is_ok());
  return sg;
}

/// What the scatter list holds now, in list order.
Bytes gather(Testbed& tb, const std::vector<fabric::SgEntry>& sg) {
  Bytes out;
  for (const auto& e : sg) {
    EXPECT_TRUE(tb.substrate().host_dram(0).append_to(out, e.addr, e.len).is_ok());
  }
  return out;
}

TEST_P(SubstrateTest, OwningScatterWriteOf64KiBLandsIntact) {
  Testbed tb(config(1));
  fabric::Substrate& sub = tb.substrate();
  const auto sg = reversed_pages(tb, std::byte{0x5A});
  Bytes payload = make_pattern(kSgBytes, 0x64);
  const Bytes sent = payload;
  auto arrival = sub.write_sg(sub.cpu(0), sg, std::move(payload));
  ASSERT_TRUE(arrival.has_value()) << arrival.status().to_string();
  EXPECT_EQ(gather(tb, sg), Bytes(kSgBytes, std::byte{0x5A})) << "landed before arrival";
  tb.engine().run_until(*arrival);
  EXPECT_EQ(gather(tb, sg), sent);
}

// The fabric damages the buffer it was handed in place. Replaying the
// plan's first decision by hand names the bit or prefix it must damage.
TEST_P(SubstrateTest, CorruptedScatterWriteLandsExactlyTheNamedDamage) {
  for (const std::string kind : {"flip_dma_bits", "torn_dma_write"}) {
    SCOPED_TRACE(kind);
    Testbed tb(config(1));
    fabric::Substrate& sub = tb.substrate();
    const auto sg = reversed_pages(tb, std::byte{0x5A});
    auto plan = fault::parse_plan("seed=5;" + kind + ":src=0,dst=0,nth=1,count=1");
    ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
    fault::Injector& injector = fault::Injector::global();
    injector.configure(*plan);
    const auto named = injector.on_posted_write(0, 0, /*to_bar=*/false, kSgBytes);
    injector.configure(std::move(*plan));  // the fabric draws the same decision

    const Bytes sent = make_pattern(kSgBytes, 0x65);
    auto arrival = sub.write_sg(sub.cpu(0), sg, sent);
    injector.disarm();
    ASSERT_TRUE(arrival.has_value()) << arrival.status().to_string();
    tb.engine().run_until(*arrival);

    Bytes want = sent;
    if (named.flip) {
      want[named.flip_bit / 8] ^= std::byte{1} << (named.flip_bit % 8);
    } else {
      ASSERT_TRUE(named.torn);
      std::fill(want.begin() + static_cast<std::ptrdiff_t>(named.torn_bytes), want.end(),
                std::byte{0x5A});
    }
    EXPECT_NE(want, sent);
    EXPECT_EQ(gather(tb, sg), want);
  }
}

TEST_P(SubstrateTest, PostedWriteSnapshotsTheCallersBuffer) {
  Testbed tb(config(1));
  fabric::Substrate& sub = tb.substrate();
  auto addr = tb.cluster().alloc_dram(0, 4096, 4096);
  ASSERT_TRUE(addr.has_value());
  Bytes buf = make_pattern(256, 0x66);
  const Bytes sent = buf;
  auto arrival = sub.post_write(sub.cpu(0), *addr, buf);
  ASSERT_TRUE(arrival.has_value()) << arrival.status().to_string();
  std::fill(buf.begin(), buf.end(), std::byte{0xEE});  // reused at once
  tb.engine().run_until(*arrival);
  Bytes landed(sent.size());
  ASSERT_TRUE(sub.host_dram(0).read(*addr, landed).is_ok());
  EXPECT_EQ(landed, sent);
}

// The bounce copy helpers keep the segment's own checks: bounds while it
// is exported, `unavailable` once it is released.
TEST_P(SubstrateTest, BounceCopyAgainstReleasedSegmentIsUnavailable) {
  Testbed tb(config(1));
  mem::PhysMem& dram = tb.substrate().host_dram(0);
  auto seg = tb.cluster().create_segment_placed(0, 0, /*cpu_access=*/true,
                                                /*device_access=*/true, /*id=*/77, kSgBytes);
  ASSERT_TRUE(seg.has_value()) << seg.status().to_string();
  auto buf = tb.cluster().alloc_dram(0, 2 * kSgBytes, 4096);
  ASSERT_TRUE(buf.has_value());
  const Bytes data = make_pattern(kSgBytes, 0x67);
  ASSERT_TRUE(dram.write(*buf, data).is_ok());

  ASSERT_TRUE(seg->copy_in(0, dram, *buf, kSgBytes).is_ok());
  ASSERT_TRUE(seg->copy_out(0, dram, *buf + kSgBytes, kSgBytes).is_ok());
  Bytes back(kSgBytes);
  ASSERT_TRUE(dram.read(*buf + kSgBytes, back).is_ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(seg->copy_in(4096, dram, *buf, kSgBytes).code(), Errc::out_of_range);
  EXPECT_EQ(seg->copy_out(1, dram, *buf, kSgBytes).code(), Errc::out_of_range);

  seg->release();
  EXPECT_EQ(seg->copy_in(0, dram, *buf, 4096).code(), Errc::unavailable);
  EXPECT_EQ(seg->copy_out(0, dram, *buf, 4096).code(), Errc::unavailable);
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, SubstrateTest,
                         ::testing::Values(fabric::SubstrateKind::ntb,
                                           fabric::SubstrateKind::cxl),
                         [](const auto& info) {
                           return std::string(fabric::substrate_name(info.param));
                         });

// --- backdoor seal guard (satellite: debug-build peek/poke assertion) --------------

class BackdoorGuardTest : public ::testing::TestWithParam<fabric::SubstrateKind> {};

TEST_P(BackdoorGuardTest, SealedCrossHostBackdoorIsRejected) {
#ifdef NDEBUG
  GTEST_SKIP() << "backdoor guard compiles out in release builds";
#else
  Testbed tb(substrate_testbed(GetParam(), 2));
  fabric::Substrate& sub = tb.substrate();

  // A window from host 1 onto the device's BAR (the device lives in host
  // 0): a backdoor access through it crosses hosts on both substrates —
  // through the NTB aperture on PCIe, over CXL.io p2p on the pool.
  auto ref = tb.service().acquire(tb.device_id(), smartio::AcquireMode::shared);
  ASSERT_TRUE(ref.has_value()) << ref.status().to_string();
  auto bar = ref->map_bar(/*node=*/1, /*bar=*/0);
  ASSERT_TRUE(bar.has_value()) << bar.status().to_string();
  const std::uint64_t cap_addr = bar->addr() + nvme::reg::kCap;

  // Unsealed (bring-up): cross-host peek is allowed and reads the register.
  Bytes got(8);
  ASSERT_TRUE(sub.peek(1, cap_addr, got).is_ok());
  EXPECT_NE(load_pod<std::uint64_t>(got), 0u);
  const std::uint64_t violations_before = sub.stats().backdoor_violations.value();

  sub.seal_backdoors();

  // Same-host backdoor access stays legal (test assertions on local state).
  auto addr = tb.cluster().alloc_dram(/*node=*/1, 4096, 4096);
  ASSERT_TRUE(addr.has_value());
  Bytes word(8, std::byte{0x42});
  EXPECT_TRUE(sub.poke(1, *addr, word).is_ok());
  EXPECT_TRUE(sub.peek(1, *addr, got).is_ok());

  // Cross-host access is now a contract violation: rejected and counted.
  Status st = sub.peek(1, cap_addr, got);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st, Status(Errc::permission_denied, ""));
  st = sub.peek(1, cap_addr, got);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(sub.stats().backdoor_violations.value(), violations_before + 2);

  // unseal (e.g. for a post-mortem dump) restores the bring-up behavior.
  sub.unseal_backdoors();
  EXPECT_TRUE(sub.peek(1, cap_addr, got).is_ok());
#endif
}

// The production stack itself must never trip the guard: a full bring-up,
// I/O, and teardown with sealed backdoors records zero violations. (The
// remote-client data-path test above also checks this; this one pins the
// manager-side admin path on host 0.)
TEST_P(BackdoorGuardTest, ProductionPathsStaySealedClean) {
#ifdef NDEBUG
  GTEST_SKIP() << "backdoor guard compiles out in release builds";
#else
  Testbed tb(substrate_testbed(GetParam(), 2));
  auto stack = bring_up(tb, 0, 1);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  tb.substrate().seal_backdoors();

  write_read_verify(tb, *stack->client, 1, /*lba=*/512, 16 * 1024, /*seed=*/0x3C);

  EXPECT_EQ(tb.substrate().stats().backdoor_violations.value(), 0u);
#endif
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, BackdoorGuardTest,
                         ::testing::Values(fabric::SubstrateKind::ntb,
                                           fabric::SubstrateKind::cxl),
                         [](const auto& info) {
                           return std::string(fabric::substrate_name(info.param));
                         });

}  // namespace
}  // namespace nvmeshare
