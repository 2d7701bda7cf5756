// Unit tests for the PCIe fabric: topology routing, address resolution, NTB
// translation, transaction timing and ordering.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "pcie/fabric.hpp"
#include "sim/task.hpp"

namespace nvmeshare::pcie {
namespace {

// A trivial endpoint with one 4 KiB BAR of plain registers plus a write log.
class ScratchDevice final : public Endpoint {
 public:
  [[nodiscard]] std::string_view name() const override { return "scratch"; }
  [[nodiscard]] int bar_count() const override { return 1; }
  [[nodiscard]] std::uint64_t bar_size(int bar) const override {
    return bar == 0 ? 4096 : 0;
  }
  Result<Bytes> bar_read(int, std::uint64_t offset, std::size_t len) override {
    if (offset + len > 4096) return Status(Errc::out_of_range, "oob");
    return Bytes(regs_.begin() + static_cast<long>(offset),
                 regs_.begin() + static_cast<long>(offset + len));
  }
  Status bar_write(int, std::uint64_t offset, ConstByteSpan data) override {
    if (offset + data.size() > 4096) return Status(Errc::out_of_range, "oob");
    std::copy(data.begin(), data.end(), regs_.begin() + static_cast<long>(offset));
    ++writes_;
    return Status::ok();
  }
  [[nodiscard]] int writes() const noexcept { return writes_; }

 private:
  Bytes regs_ = Bytes(4096, std::byte{0});
  int writes_ = 0;
};

struct TwoHostFixture {
  sim::Engine engine;
  Fabric fabric{engine};
  HostId h0, h1;
  NtbId ntb0, ntb1;
  ChipId cs;

  TwoHostFixture() {
    h0 = fabric.add_host("h0", 256 * MiB);
    h1 = fabric.add_host("h1", 256 * MiB);
    cs = fabric.add_cluster_switch("cs");
    ntb0 = *fabric.add_ntb(h0, 16, 1 * MiB);
    ntb1 = *fabric.add_ntb(h1, 16, 1 * MiB);
    EXPECT_TRUE(fabric.link_chips(fabric.ntb_chip(ntb0), cs).is_ok());
    EXPECT_TRUE(fabric.link_chips(fabric.ntb_chip(ntb1), cs).is_ok());
  }
};

TEST(Topology, PathCostSumsChipLatencies) {
  Topology topo;
  ChipId a = topo.add_chip("a", ChipKind::root_complex, 0, 80);
  ChipId b = topo.add_chip("b", ChipKind::switch_chip, 0, 120);
  ChipId c = topo.add_chip("c", ChipKind::switch_chip, 0, 120);
  ASSERT_TRUE(topo.link(a, b).is_ok());
  ASSERT_TRUE(topo.link(b, c).is_ok());
  auto pc = topo.path_cost(a, c);
  EXPECT_TRUE(pc.reachable);
  EXPECT_EQ(pc.hops, 3);
  EXPECT_EQ(pc.cost_ns, 80 + 120 + 120);
}

TEST(Topology, UnreachableChips) {
  Topology topo;
  ChipId a = topo.add_chip("a", ChipKind::root_complex, 0, 80);
  ChipId b = topo.add_chip("b", ChipKind::root_complex, 1, 80);
  auto pc = topo.path_cost(a, b);
  EXPECT_FALSE(pc.reachable);
}

TEST(Topology, ShortestPathChosen) {
  Topology topo;
  // a - b - c and a - d - e - c: BFS must pick the 3-chip path.
  ChipId a = topo.add_chip("a", ChipKind::root_complex, 0, 10);
  ChipId b = topo.add_chip("b", ChipKind::switch_chip, 0, 10);
  ChipId c = topo.add_chip("c", ChipKind::switch_chip, 0, 10);
  ChipId d = topo.add_chip("d", ChipKind::switch_chip, 0, 10);
  ChipId e = topo.add_chip("e", ChipKind::switch_chip, 0, 10);
  ASSERT_TRUE(topo.link(a, b).is_ok());
  ASSERT_TRUE(topo.link(b, c).is_ok());
  ASSERT_TRUE(topo.link(a, d).is_ok());
  ASSERT_TRUE(topo.link(d, e).is_ok());
  ASSERT_TRUE(topo.link(e, c).is_ok());
  EXPECT_EQ(topo.path_cost(a, c).hops, 3);
}

TEST(Topology, DuplicateLinkRejected) {
  Topology topo;
  ChipId a = topo.add_chip("a", ChipKind::root_complex, 0, 10);
  ChipId b = topo.add_chip("b", ChipKind::switch_chip, 0, 10);
  ASSERT_TRUE(topo.link(a, b).is_ok());
  EXPECT_EQ(topo.link(a, b).code(), Errc::already_exists);
  EXPECT_EQ(topo.link(a, a).code(), Errc::invalid_argument);
}

// Reference for the route-cost table: a BFS from `a` that records each
// chip's predecessor, then a walk back from `b` that sums forward_ns. It
// visits neighbours in the topology's order, so ties between equally short
// paths break the same way as in the table.
Topology::PathCost reference_path_cost(const Topology& topo, ChipId a, ChipId b) {
  std::vector<ChipId> pred(topo.chip_count(), kNoChip);
  std::deque<ChipId> q{a};
  pred[a] = a;
  while (!q.empty()) {
    const ChipId cur = q.front();
    q.pop_front();
    for (ChipId nxt : topo.neighbors(cur)) {
      if (pred[nxt] == kNoChip && topo.link_up(cur, nxt)) {
        pred[nxt] = cur;
        q.push_back(nxt);
      }
    }
  }
  Topology::PathCost pc;
  if (pred[b] == kNoChip) return pc;
  pc.reachable = true;
  for (ChipId cur = b;; cur = pred[cur]) {
    pc.cost_ns += topo.chip(cur).forward_ns;
    ++pc.hops;
    if (cur == a) break;
  }
  return pc;
}

TEST(TopologyProperty, CostTableMatchesReferenceBfsAcrossLinkFlips) {
  Rng rng(15);
  std::uint64_t reachable_pairs = 0;
  std::uint64_t unreachable_pairs = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Topology topo;
    const auto n = static_cast<ChipId>(2 + rng.uniform(14));
    for (ChipId i = 0; i < n; ++i) {
      (void)topo.add_chip(std::to_string(i), ChipKind::switch_chip, 0,
                          static_cast<sim::Duration>(10 + rng.uniform(200)));
    }
    std::vector<std::pair<ChipId, ChipId>> links;
    for (std::uint64_t e = rng.uniform(2 * n); e > 0; --e) {
      const auto a = static_cast<ChipId>(rng.uniform(n));
      const auto b = static_cast<ChipId>(rng.uniform(n));
      if (topo.link(a, b).is_ok()) links.emplace_back(a, b);
    }
    auto snapshot = [&] {
      std::vector<Topology::PathCost> table;
      for (ChipId a = 0; a < n; ++a) {
        for (ChipId b = 0; b < n; ++b) {
          const Topology::PathCost got = topo.path_cost(a, b);
          const Topology::PathCost want = reference_path_cost(topo, a, b);
          EXPECT_EQ(got.reachable, want.reachable) << "trial " << trial << " " << a << "->" << b;
          EXPECT_EQ(got.hops, want.hops) << "trial " << trial << " " << a << "->" << b;
          EXPECT_EQ(got.cost_ns, want.cost_ns) << "trial " << trial << " " << a << "->" << b;
          ++(want.reachable ? reachable_pairs : unreachable_pairs);
          table.push_back(got);
        }
      }
      EXPECT_FALSE(topo.path_cost(n, 0).reachable);
      EXPECT_FALSE(topo.path_cost(0, n).reachable);
      return table;
    };
    const auto built = snapshot();
    for (int flip = 0; flip < 8 && !links.empty(); ++flip) {
      const auto& [a, b] = links[rng.uniform(links.size())];
      ASSERT_TRUE(topo.set_link_state(a, b, rng.chance(0.3)).is_ok());
      (void)snapshot();
    }
    for (const auto& [a, b] : links) ASSERT_TRUE(topo.set_link_state(a, b, true).is_ok());
    const auto restored = snapshot();
    for (std::size_t i = 0; i < built.size(); ++i) {
      EXPECT_EQ(restored[i].reachable, built[i].reachable) << "trial " << trial << " pair " << i;
      EXPECT_EQ(restored[i].hops, built[i].hops) << "trial " << trial << " pair " << i;
      EXPECT_EQ(restored[i].cost_ns, built[i].cost_ns) << "trial " << trial << " pair " << i;
    }
  }
  // The generator must reach both kinds of pair for the comparison to mean
  // anything.
  EXPECT_GT(reachable_pairs, 1000u);
  EXPECT_GT(unreachable_pairs, 1000u);
}

TEST(LatencyModel, PostedVsNonPosted) {
  LatencyModel m;
  // A read must cost more than a posted write of the same size: it pays the
  // path twice.
  EXPECT_GT(m.read_ns(300, 0, 4096), m.posted_write_ns(300, 0, 4096));
}

TEST(LatencyModel, TlpSegmentation) {
  LatencyModel m;
  EXPECT_EQ(m.tlp_count(0), 1u);
  EXPECT_EQ(m.tlp_count(256), 1u);
  EXPECT_EQ(m.tlp_count(257), 2u);
  EXPECT_EQ(m.tlp_count(4096), 16u);
}

TEST(Fabric, LocalDramPokePeek) {
  sim::Engine engine;
  Fabric fabric(engine);
  HostId h = fabric.add_host("h", 64 * MiB);
  Bytes data = make_pattern(512, 5);
  ASSERT_TRUE(fabric.poke(h, 0x1000, data).is_ok());
  Bytes out(512);
  ASSERT_TRUE(fabric.peek(h, 0x1000, out).is_ok());
  EXPECT_EQ(data, out);
}

TEST(Fabric, UnmappedAddressRejected) {
  sim::Engine engine;
  Fabric fabric(engine);
  HostId h = fabric.add_host("h", 64 * MiB);
  Bytes buf(16);
  EXPECT_EQ(fabric.peek(h, 0x7000'0000'0000, buf).code(), Errc::unmapped_address);
}

TEST(Fabric, BarReadWriteThroughFabric) {
  sim::Engine engine;
  Fabric fabric(engine);
  HostId h = fabric.add_host("h", 64 * MiB);
  ScratchDevice dev;
  auto ep = fabric.attach_endpoint(dev, h, fabric.host_rc(h));
  ASSERT_TRUE(ep.has_value());
  auto bar = fabric.bar_address(*ep, 0);
  ASSERT_TRUE(bar.has_value());

  Bytes data = make_pattern(64, 9);
  auto arrival = fabric.post_write(fabric.cpu(h), *bar + 128, data);
  ASSERT_TRUE(arrival.has_value());
  EXPECT_GT(*arrival, engine.now());
  EXPECT_EQ(dev.writes(), 0);  // posted: not applied yet
  engine.run();
  EXPECT_EQ(dev.writes(), 1);

  Bytes out(64);
  ASSERT_TRUE(fabric.peek(h, *bar + 128, out).is_ok());
  EXPECT_EQ(out, data);
}

TEST(Fabric, NtbWindowTranslatesToRemoteDram) {
  TwoHostFixture f;
  ASSERT_TRUE(f.fabric.ntb_program(f.ntb0, 0, f.h1, 2 * MiB).is_ok());
  auto window = f.fabric.ntb_window_address(f.ntb0, 0);
  ASSERT_TRUE(window.has_value());

  auto resolved = f.fabric.resolve(f.h0, *window + 4096, 64);
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(resolved->host, f.h1);
  EXPECT_EQ(resolved->addr, 2 * MiB + 4096);
  EXPECT_EQ(resolved->ntb_crossings, 1);

  // Bytes really land in h1's DRAM.
  Bytes data = make_pattern(64, 11);
  ASSERT_TRUE(f.fabric.poke(f.h0, *window + 4096, data).is_ok());
  Bytes out(64);
  ASSERT_TRUE(f.fabric.host_dram(f.h1).read(2 * MiB + 4096, out).is_ok());
  EXPECT_EQ(out, data);
}

TEST(Fabric, UnprogrammedLutEntryIsUnmapped) {
  TwoHostFixture f;
  auto window = f.fabric.ntb_window_address(f.ntb0, 3);
  ASSERT_TRUE(window.has_value());
  Bytes buf(8);
  EXPECT_EQ(f.fabric.peek(f.h0, *window, buf).code(), Errc::unmapped_address);
}

TEST(Fabric, AccessAcrossWindowBoundaryRejected) {
  TwoHostFixture f;
  ASSERT_TRUE(f.fabric.ntb_program(f.ntb0, 0, f.h1, 0).is_ok());
  ASSERT_TRUE(f.fabric.ntb_program(f.ntb0, 1, f.h1, 1 * MiB).is_ok());
  auto window = f.fabric.ntb_window_address(f.ntb0, 0);
  Bytes buf(4096);
  EXPECT_EQ(f.fabric.peek(f.h0, *window + 1 * MiB - 100, buf).code(), Errc::out_of_range);
}

TEST(Fabric, RemoteReadCostsMoreThanLocal) {
  TwoHostFixture f;
  ASSERT_TRUE(f.fabric.ntb_program(f.ntb0, 0, f.h1, 0).is_ok());
  auto window = f.fabric.ntb_window_address(f.ntb0, 0);

  sim::Time local_done = 0, remote_done = 0;
  [](Fabric& fab, HostId h, std::uint64_t addr, sim::Time& out) -> sim::Task {
    (void)co_await fab.read(fab.cpu(h), addr, 64);
    out = fab.engine().now();
  }(f.fabric, f.h0, 0x2000, local_done);
  f.engine.run();
  const sim::Time t0 = f.engine.now();
  [](Fabric& fab, HostId h, std::uint64_t addr, sim::Time& out) -> sim::Task {
    (void)co_await fab.read(fab.cpu(h), addr, 64);
    out = fab.engine().now();
  }(f.fabric, f.h0, *window, remote_done);
  f.engine.run();
  EXPECT_GT(remote_done - t0, local_done);
  // The remote path crosses NTB0 -> cluster switch -> NTB1 -> RC1: the
  // round trip must include at least 2x those chip costs.
  const auto& m = f.fabric.latency_model();
  EXPECT_GE((remote_done - t0) - local_done,
            2 * (2 * m.ntb_adapter_ns + m.cluster_switch_ns));
}

TEST(Fabric, PostedWritesApplyInOrder) {
  TwoHostFixture f;
  ASSERT_TRUE(f.fabric.ntb_program(f.ntb0, 0, f.h1, 0).is_ok());
  auto window = f.fabric.ntb_window_address(f.ntb0, 0);
  // Two writes to the same remote location issued back to back: the second
  // must win.
  Bytes first(8, std::byte{0x11});
  Bytes second(8, std::byte{0x22});
  ASSERT_TRUE(f.fabric.post_write(f.fabric.cpu(f.h0), *window, first).has_value());
  ASSERT_TRUE(f.fabric.post_write(f.fabric.cpu(f.h0), *window, second).has_value());
  f.engine.run();
  Bytes out(8);
  ASSERT_TRUE(f.fabric.host_dram(f.h1).read(0, out).is_ok());
  EXPECT_EQ(out, second);
}

TEST(Fabric, NotBeforeOrdersDataBeforeCompletion) {
  TwoHostFixture f;
  // A small write issued after a big one, with not_before chaining, must
  // not arrive earlier.
  Bytes big(64 * KiB, std::byte{0xAA});
  Bytes small(8, std::byte{0xBB});
  auto t_big = f.fabric.post_write(f.fabric.cpu(f.h0), 0x10000, big);
  ASSERT_TRUE(t_big.has_value());
  auto t_small = f.fabric.post_write(f.fabric.cpu(f.h0), 0x90000, small, *t_big);
  ASSERT_TRUE(t_small.has_value());
  EXPECT_GE(*t_small, *t_big);
}

TEST(Fabric, PostedFloorsSurviveTopologyGrowth) {
  TwoHostFixture f;
  // h1's CPU writes into h0's DRAM through h1's NTB: a pair of chips away
  // from the start of the floor table, so a table that lost its layout
  // when it grew would read another pair's floor.
  ASSERT_TRUE(f.fabric.ntb_program(f.ntb1, 0, f.h0, 0).is_ok());
  auto window = f.fabric.ntb_window_address(f.ntb1, 0);
  ASSERT_TRUE(window.has_value());
  auto t_big = f.fabric.post_write(f.fabric.cpu(f.h1), *window, Bytes(64 * KiB));
  ASSERT_TRUE(t_big.has_value());
  const std::size_t chips_before = f.fabric.topology().chip_count();
  (void)f.fabric.add_host("h2", 64 * MiB);
  (void)f.fabric.add_cluster_switch("cs2");
  ASSERT_GT(f.fabric.topology().chip_count(), chips_before);
  // Same initiator, same completer: the small write may not pass the big
  // one, although alone it would land far sooner.
  auto t_small = f.fabric.post_write(f.fabric.cpu(f.h1), *window + 0x20000, Bytes(8));
  ASSERT_TRUE(t_small.has_value());
  EXPECT_GT(*t_small, *t_big);
}

TEST(Fabric, ScatterGatherRoundTrip) {
  TwoHostFixture f;
  std::vector<SgEntry> sg{{0x10000, 4096}, {0x30000, 4096}, {0x50000, 4096}};
  Bytes data = make_pattern(3 * 4096, 21);
  auto arrival = f.fabric.write_sg(f.fabric.cpu(f.h0), sg, data);
  ASSERT_TRUE(arrival.has_value());
  f.engine.run();

  bool done = false;
  [](Fabric& fab, HostId h, std::vector<SgEntry> list, Bytes expect, bool& ok) -> sim::Task {
    auto got = co_await fab.read_sg(fab.cpu(h), list);
    ok = got.has_value() && *got == expect;
  }(f.fabric, f.h0, sg, data, done);
  f.engine.run();
  EXPECT_TRUE(done);
}

TEST(Fabric, LutEntryExhaustion) {
  TwoHostFixture f;
  for (std::uint32_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(f.fabric.ntb_program(f.ntb0, i, f.h1, 0).is_ok());
  }
  EXPECT_EQ(f.fabric.ntb_alloc_entry(f.ntb0).error_code(), Errc::resource_exhausted);
  EXPECT_EQ(f.fabric.ntb_alloc_run(f.ntb0, 2).error_code(), Errc::resource_exhausted);
  ASSERT_TRUE(f.fabric.ntb_clear(f.ntb0, 7).is_ok());
  auto e = f.fabric.ntb_alloc_entry(f.ntb0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 7u);
}

TEST(Fabric, AllocRunFindsConsecutiveEntries) {
  TwoHostFixture f;
  ASSERT_TRUE(f.fabric.ntb_program(f.ntb0, 1, f.h1, 0).is_ok());
  ASSERT_TRUE(f.fabric.ntb_program(f.ntb0, 4, f.h1, 0).is_ok());
  auto run = f.fabric.ntb_alloc_run(f.ntb0, 3);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(*run, 5u);  // first run of 3 free entries after index 4
}

TEST(Fabric, ChainedNtbTranslationAcrossThreeHosts) {
  // Host A's window points into host B's NTB aperture, which forwards to
  // host C: resolution must follow the chain (multi-hop clusters) and
  // count both crossings.
  sim::Engine engine;
  Fabric fabric(engine);
  HostId a = fabric.add_host("a", 64 * MiB);
  HostId b = fabric.add_host("b", 64 * MiB);
  HostId c = fabric.add_host("c", 64 * MiB);
  ChipId cs1 = fabric.add_cluster_switch("cs1");
  NtbId ntb_a = *fabric.add_ntb(a, 8, 1 * MiB);
  NtbId ntb_b = *fabric.add_ntb(b, 8, 1 * MiB);
  NtbId ntb_c = *fabric.add_ntb(c, 8, 1 * MiB);
  ASSERT_TRUE(fabric.link_chips(fabric.ntb_chip(ntb_a), cs1).is_ok());
  ASSERT_TRUE(fabric.link_chips(fabric.ntb_chip(ntb_b), cs1).is_ok());
  ASSERT_TRUE(fabric.link_chips(fabric.ntb_chip(ntb_c), cs1).is_ok());

  // B window 0 -> C DRAM @ 4 MiB; A window 0 -> B's window 0 aperture.
  ASSERT_TRUE(fabric.ntb_program(ntb_b, 0, c, 4 * MiB).is_ok());
  const std::uint64_t b_window = *fabric.ntb_window_address(ntb_b, 0);
  ASSERT_TRUE(fabric.ntb_program(ntb_a, 0, b, b_window).is_ok());
  const std::uint64_t a_window = *fabric.ntb_window_address(ntb_a, 0);

  auto resolved = fabric.resolve(a, a_window + 512, 64);
  ASSERT_TRUE(resolved.has_value()) << resolved.status().to_string();
  EXPECT_EQ(resolved->host, c);
  EXPECT_EQ(resolved->addr, 4 * MiB + 512);
  EXPECT_EQ(resolved->ntb_crossings, 2);

  Bytes data = make_pattern(64, 3);
  ASSERT_TRUE(fabric.poke(a, a_window + 512, data).is_ok());
  Bytes out(64);
  ASSERT_TRUE(fabric.host_dram(c).read(4 * MiB + 512, out).is_ok());
  EXPECT_EQ(out, data);
}

TEST(Fabric, NtbForwardingLoopDetected) {
  sim::Engine engine;
  Fabric fabric(engine);
  HostId a = fabric.add_host("a", 64 * MiB);
  HostId b = fabric.add_host("b", 64 * MiB);
  ChipId cs = fabric.add_cluster_switch("cs");
  NtbId ntb_a = *fabric.add_ntb(a, 8, 1 * MiB);
  NtbId ntb_b = *fabric.add_ntb(b, 8, 1 * MiB);
  ASSERT_TRUE(fabric.link_chips(fabric.ntb_chip(ntb_a), cs).is_ok());
  ASSERT_TRUE(fabric.link_chips(fabric.ntb_chip(ntb_b), cs).is_ok());

  // A->B's aperture and B->A's aperture: an infinite forwarding loop.
  const std::uint64_t a_window = *fabric.ntb_window_address(ntb_a, 0);
  const std::uint64_t b_window = *fabric.ntb_window_address(ntb_b, 0);
  ASSERT_TRUE(fabric.ntb_program(ntb_a, 0, b, b_window).is_ok());
  ASSERT_TRUE(fabric.ntb_program(ntb_b, 0, a, a_window).is_ok());
  auto resolved = fabric.resolve(a, a_window, 8);
  EXPECT_FALSE(resolved.has_value());
  EXPECT_EQ(resolved.error_code(), Errc::protocol_error);
}

TEST(Fabric, LinkFailureMakesRemoteUnreachableAndRecovers) {
  TwoHostFixture f;
  ASSERT_TRUE(f.fabric.ntb_program(f.ntb0, 0, f.h1, 0).is_ok());
  auto window = f.fabric.ntb_window_address(f.ntb0, 0);

  // Healthy: remote read works.
  bool ok_before = false;
  [](Fabric& fab, std::uint64_t addr, bool& out) -> sim::Task {
    auto r = co_await fab.read(fab.cpu(0), addr, 64);
    out = r.has_value();
  }(f.fabric, *window, ok_before);
  f.engine.run();
  EXPECT_TRUE(ok_before);

  // Pull the cable between NTB0 and the cluster switch.
  ASSERT_TRUE(f.fabric.topology().set_link_state(f.fabric.ntb_chip(f.ntb0), f.cs, false)
                  .is_ok());
  Status down_status;
  [](Fabric& fab, std::uint64_t addr, Status& out) -> sim::Task {
    auto r = co_await fab.read(fab.cpu(0), addr, 64);
    out = r.status();
  }(f.fabric, *window, down_status);
  f.engine.run();
  EXPECT_EQ(down_status.code(), Errc::unavailable);
  // Posted writes are dropped as unsupported requests, not applied.
  const auto ur_before = f.fabric.stats().unsupported_requests;
  EXPECT_FALSE(f.fabric.post_write(f.fabric.cpu(f.h0), *window, Bytes(8)).has_value());
  EXPECT_EQ(f.fabric.stats().unsupported_requests, ur_before);  // resolve ok, path fails

  // Local traffic is unaffected.
  Bytes local(16);
  EXPECT_TRUE(f.fabric.peek(f.h0, 0x1000, local).is_ok());

  // Plug it back in: reads work again.
  ASSERT_TRUE(f.fabric.topology().set_link_state(f.fabric.ntb_chip(f.ntb0), f.cs, true)
                  .is_ok());
  bool ok_after = false;
  [](Fabric& fab, std::uint64_t addr, bool& out) -> sim::Task {
    auto r = co_await fab.read(fab.cpu(0), addr, 64);
    out = r.has_value();
  }(f.fabric, *window, ok_after);
  f.engine.run();
  EXPECT_TRUE(ok_after);
}

TEST(Fabric, StatsAreCounted) {
  TwoHostFixture f;
  const auto before = f.fabric.stats();
  (void)f.fabric.post_write(f.fabric.cpu(f.h0), 0x1000, Bytes(128));
  f.engine.run();
  EXPECT_EQ(f.fabric.stats().posted_writes, before.posted_writes + 1);
  EXPECT_EQ(f.fabric.stats().bytes_written, before.bytes_written + 128);
}

}  // namespace
}  // namespace nvmeshare::pcie
