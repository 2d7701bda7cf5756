// hostbench: the workload runner behind perfbench/run.py.
//
// It runs one closed-loop workload of the simulator in repeated rounds until
// a wall-clock budget is spent. Each round builds a fresh testbed from the
// same seed, times its set-up and its I/O phase from outside, and hashes
// every simulated output (per-job ops, errors, latency samples, simulated
// end times and the obs::Registry snapshot) into a fingerprint. Rounds of
// one seed must agree exactly. A narrower digest, the outcome, covers only
// what the simulated system did (job results, latency samples, end times)
// and not the counters of host-side work such as poll rounds; run.py
// compares it with the reference digests kept in fingerprints.json. The
// result is one JSON document of raw measurements on stdout; run.py derives
// the metrics and applies the checks.
//
//   hostbench --workload paper-qd1|deep-mixed|tenants-64k --seed N
//             --seconds S [--trace 0|1] [--rounds N]
//
// --rounds N runs exactly N rounds, whatever the time budget.
//
// A fixed reference pass runs before and after the set-up and each I/O
// stage of every round, so run.py can take out the drift of the machine's speed
// (see ReferencePass).
//
// With --trace 1, untraced and traced rounds alternate (the difference is
// the tracing overhead), traced rounds aggregate obs::Tracer spans per
// phase, and isolated probes time single Substrate, PhysMem and QueuePair
// calls on fresh objects after a warm-up.
//
// Only public simulator APIs are used: workload::Testbed, Manager::start,
// Client::attach / create_share, mux::TenantDevice, block::ShardedDevice,
// workload::run_job, obs::Registry and obs::Tracer.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdarg>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "block/sharded_device.hpp"
#include "cxl/pool.hpp"
#include "driver/client.hpp"
#include "driver/manager.hpp"
#include "mem/phys_mem.hpp"
#include "mux/mux.hpp"
#include "nvme/queue.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/fio.hpp"
#include "workload/testbed.hpp"

namespace {

using namespace nvmeshare;

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

[[noreturn]] void die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "hostbench: %s: %s\n", what.c_str(), st.to_string().c_str());
  std::exit(1);
}

// --- host spans -----------------------------------------------------------------
//
// Wall-clock spans the benchmark records around its own calls into the
// simulator (testbed construction, manager start, attach, share, each I/O
// stage) and around the reference passes. They nest by call order and are
// part of the output of traced runs.

struct HostSpan {
  std::string name;
  int parent = -1;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

class HostSpans {
 public:
  int open(const char* name) {
    spans_.push_back(HostSpan{name, stack_.empty() ? -1 : stack_.back(), wall_ns(), 0});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  std::uint64_t close(int id) {
    spans_[id].end = wall_ns();
    stack_.pop_back();
    return spans_[id].end - spans_[id].begin;
  }
  [[nodiscard]] const std::vector<HostSpan>& spans() const { return spans_; }

 private:
  std::vector<HostSpan> spans_;
  std::vector<int> stack_;
};

HostSpans g_spans;
/// Per-call wall ns of the timed set-up calls, keyed by call name.
std::map<std::string, std::vector<std::uint64_t>> g_calls;

/// Run `call` (a blocking wait on one simulator call), recording its wall
/// time as a span and as one sample of the named timed call.
template <typename F>
auto timed_call(const char* name, F&& call) {
  const int span = g_spans.open(name);
  auto result = call();
  g_calls[name].push_back(g_spans.close(span));
  return result;
}

// --- fingerprint ----------------------------------------------------------------

class Fnv {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
  }
  void add(std::uint64_t v) { add(&v, sizeof v); }
  void add(const std::string& s) {
    add(s.size());
    add(s.data(), s.size());
  }
  [[nodiscard]] std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --- workloads ------------------------------------------------------------------

/// One job of a round: a workload::JobSpec against a device of a testbed.
struct Job {
  workload::Testbed* bed = nullptr;
  block::BlockDevice* device = nullptr;
  sisci::NodeId node = 0;
  workload::JobSpec spec;  ///< spec.name labels the job, e.g. "ours-remote/randread"
};

/// Everything one round builds; destroyed when the round ends.
struct Rig {
  std::vector<std::unique_ptr<workload::Testbed>> beds;
  std::vector<std::unique_ptr<driver::Manager>> managers;
  std::vector<std::unique_ptr<driver::Client>> clients;
  std::vector<std::unique_ptr<mux::TenantDevice>> tenant_devs;
  std::vector<std::unique_ptr<block::ShardedDevice>> namespaces;
  /// Stages run one after another; the jobs of one stage run concurrently
  /// on one testbed.
  std::vector<std::vector<Job>> stages;
  std::uint64_t namespace_blocks = 0;  ///< tenants-64k: capacity of each tenant namespace
  std::uint32_t channels = 1;          ///< I/O queue pairs per client
};

/// A testbed whose controller model is seeded from the run's seed.
workload::Testbed& new_bed(Rig& rig, workload::TestbedConfig cfg, std::uint64_t seed) {
  cfg.nvme.seed = seed;
  const int span = g_spans.open("testbed");
  rig.beds.push_back(std::make_unique<workload::Testbed>(cfg));
  g_spans.close(span);
  return *rig.beds.back();
}

driver::Manager& start_manager(Rig& rig, workload::Testbed& bed, std::size_t dev,
                               driver::Manager::Config mc) {
  auto mgr = timed_call("manager_start", [&] {
    return bed.wait(driver::Manager::start(bed.service(), bed.device_host(dev),
                                           bed.device_id(dev), mc));
  });
  if (!mgr) die("manager start", mgr.status());
  rig.managers.push_back(std::move(*mgr));
  return *rig.managers.back();
}

driver::Client& attach_client(Rig& rig, workload::Testbed& bed, sisci::NodeId node,
                              std::size_t dev, driver::Client::Config cc) {
  auto client = timed_call("client_attach", [&] {
    return bed.wait(driver::Client::attach(bed.service(), node, bed.device_id(dev), cc));
  });
  if (!client) die("client attach", client.status());
  rig.clients.push_back(std::move(*client));
  return *rig.clients.back();
}

// paper-qd1: the Figure 10 half on NTB. ours-local (manager and client on
// the device's host) and ours-remote (client across the NTB), 4 KiB randread
// then randwrite at QD1 on one channel, 20k ops per job.
constexpr std::uint64_t kQd1Ops = 20000;
constexpr std::uint64_t kQd1RegionBlocks = (64 * MiB) / 512;

void build_paper_qd1(Rig& rig, std::uint64_t seed) {
  for (const bool remote : {false, true}) {
    workload::TestbedConfig cfg;
    cfg.hosts = remote ? 2 : 1;
    workload::Testbed& bed = new_bed(rig, cfg, seed);
    start_manager(rig, bed, 0, {});
    const sisci::NodeId node = remote ? 1 : 0;
    driver::Client& client = attach_client(rig, bed, node, 0, {});
    const std::string scenario = remote ? "ours-remote" : "ours-local";
    for (const bool read : {true, false}) {
      Job job;
      job.bed = &bed;
      job.device = &client;
      job.node = node;
      job.spec.pattern =
          read ? workload::JobSpec::Pattern::randread : workload::JobSpec::Pattern::randwrite;
      job.spec.block_bytes = 4096;
      job.spec.queue_depth = 1;
      job.spec.ops = kQd1Ops;
      job.spec.region_blocks = kQd1RegionBlocks;
      job.spec.seed = seed;
      job.spec.name = scenario + (read ? "/randread" : "/randwrite");
      rig.stages.push_back({job});
    }
  }
}

// deep-mixed: ours-remote on NTB, 4 channels x QD32, 4 KiB randrw 70% reads
// with verify over a 64 MiB region.
constexpr std::uint64_t kDeepOps = 15000;

void build_deep_mixed(Rig& rig, std::uint64_t seed) {
  workload::TestbedConfig cfg;
  cfg.hosts = 2;
  workload::Testbed& bed = new_bed(rig, cfg, seed);
  start_manager(rig, bed, 0, {});
  driver::Client::Config cc;
  cc.channels = 4;
  cc.queue_depth = 32;
  cc.queue_entries = 64;
  driver::Client& client = attach_client(rig, bed, 1, 0, cc);
  rig.channels = cc.channels;
  Job job;
  job.bed = &bed;
  job.device = &client;
  job.node = 1;
  job.spec.pattern = workload::JobSpec::Pattern::randrw;
  job.spec.read_fraction = 0.7;
  job.spec.block_bytes = 4096;
  job.spec.queue_depth = 128;
  job.spec.ops = kDeepOps;
  job.spec.region_blocks = (64 * MiB) / 512;
  job.spec.verify = true;
  job.spec.seed = seed;
  job.spec.name = "ours-remote/randrw70";
  rig.stages.push_back({job});
}

// tenants-64k: the fig13 rig on CXL. 32 hosts, 4 controllers with one
// manager each; every borrowing host attaches one client per controller and
// runs 2 tenants, each with a ShardedDevice over its 4 TenantDevices.
// 64 KiB randrw 50/50 at QD4 per tenant, verify on, and each tenant owns a
// disjoint region of the namespace so no tenant overwrites another's data
// (overlapping regions make verify report the other tenants' writes).
//
// Tenant CID windows sit just above the client's own window
// [0, queue_depth). The depth steps up by one host's worth of tenant CIDs
// per controller, so the tenants of each controller use CIDs no other
// controller uses. The manager hands every host the same qid on each
// controller, and obs::Tracer binds device-side spans by (qid, cid) alone:
// without the step, the two halves of a split request would overwrite each
// other's binding and the device-side phase times would be wrong.
constexpr std::uint32_t kTenantHosts = 32;
constexpr std::uint32_t kTenantDevices = 4;
constexpr std::uint32_t kTenantsPerHost = 2;
constexpr std::uint16_t kTenantCids = 8;
constexpr std::uint32_t kTenantCidStride = kTenantsPerHost * kTenantCids;
constexpr std::uint64_t kTenantOps = 48;
constexpr std::uint64_t kTenantRegionBlocks = (32 * MiB) / 512;
/// Regions start half a stripe (32 KiB) past a chunk boundary, so every
/// 64 KiB request straddles two shards and ShardedDevice splits it.
constexpr std::uint64_t kTenantRegionSkew = block::ShardedDevice::Config{}.stripe_blocks / 2;

void build_tenants(Rig& rig, std::uint64_t seed) {
  workload::TestbedConfig cfg;
  cfg.substrate = fabric::SubstrateKind::cxl;
  cfg.hosts = kTenantHosts;
  cfg.nvme_devices = kTenantDevices;
  workload::Testbed& bed = new_bed(rig, cfg, seed);
  // Distinct segment ids per manager: on CXL every shared segment lives in
  // the one pool address space.
  for (std::uint32_t d = 0; d < kTenantDevices; ++d) {
    driver::Manager::Config mc;
    mc.metadata_segment_id += d;
    mc.private_segment_base += static_cast<sisci::SegmentId>(d) << 8;
    start_manager(rig, bed, d, mc);
  }
  std::vector<Job> jobs;
  std::uint64_t tenant_index = 0;
  for (std::uint32_t h = 1; h < kTenantHosts; ++h) {
    std::vector<driver::Client*> clients;
    for (std::uint32_t d = 0; d < kTenantDevices; ++d) {
      driver::Client::Config cc;
      cc.segment_namespace = d;
      cc.queue_depth = kTenantCidStride * (d + 1);
      cc.queue_entries = static_cast<std::uint16_t>(kTenantCidStride * (kTenantDevices + 1));
      clients.push_back(&attach_client(rig, bed, h, d, cc));
    }
    for (std::uint32_t t = 1; t <= kTenantsPerHost; ++t) {
      std::vector<block::BlockDevice*> shards;
      for (driver::Client* client : clients) {
        driver::Client::ShareRequest req;
        req.tenant = t;
        req.cid_count = kTenantCids;
        auto grant = timed_call("create_share",
                                [&] { return bed.wait(client->create_share(req)); });
        if (!grant) die("create_share", grant.status());
        rig.tenant_devs.push_back(
            std::make_unique<mux::TenantDevice>(*client->multiplexer(), *client, t));
        shards.push_back(rig.tenant_devs.back().get());
      }
      rig.namespaces.push_back(std::make_unique<block::ShardedDevice>(
          bed.engine(), std::move(shards), block::ShardedDevice::Config{}));
      rig.namespace_blocks = rig.namespaces.back()->capacity_blocks();
      Job job;
      job.bed = &bed;
      job.device = rig.namespaces.back().get();
      job.node = h;
      job.spec.pattern = workload::JobSpec::Pattern::randrw;
      job.spec.read_fraction = 0.5;
      job.spec.block_bytes = 64 * 1024;
      job.spec.queue_depth = 4;
      job.spec.ops = kTenantOps;
      job.spec.region_blocks = kTenantRegionBlocks;
      job.spec.region_offset_blocks = tenant_index * kTenantRegionBlocks + kTenantRegionSkew;
      job.spec.verify = true;
      job.spec.seed = seed * 1'000'003ULL + h * 64ULL + t;
      job.spec.name = "t" + std::to_string(h) + "." + std::to_string(t);
      jobs.push_back(job);
      ++tenant_index;
    }
  }
  rig.stages.push_back(std::move(jobs));
}

using Builder = void (*)(Rig&, std::uint64_t);

Builder builder_for(const std::string& workload) {
  if (workload == "paper-qd1") return build_paper_qd1;
  if (workload == "deep-mixed") return build_deep_mixed;
  if (workload == "tenants-64k") return build_tenants;
  return nullptr;
}

// --- machine speed reference ---------------------------------------------------------
//
// The machine this runs on changes speed by up to 2x for seconds to minutes
// at a time (other tenants of the host). A fixed reference pass runs before
// and after each timed phase, and run.py divides the phase's host time by
// the mean of the two. The pass uses nothing from the simulator and allocates only
// from its own buffer, so no change to the simulator can change its cost.
// Its mix follows the simulator's: an event heap, hash-map inserts and
// lookups, indirect calls, and 4 KiB copies scattered over a 32 MiB arena.

class ReferencePass {
 public:
  ReferencePass() : arena_(32 * MiB, std::byte{1}), pool_(4 * MiB) {}

  /// Bytes of the pass's buffers, which stay resident for the whole run.
  [[nodiscard]] std::uint64_t resident_bytes() const { return arena_.size() + pool_.size(); }

  /// Wall ns of one pass.
  std::uint64_t run() {
    const int span = g_spans.open("reference");
    sink_ = sink_ + pass();
    return g_spans.close(span);
  }

 private:
  static constexpr int kEvents = 50000;

  std::uint64_t pass() {
    std::pmr::monotonic_buffer_resource mem(pool_.data(), pool_.size(),
                                            std::pmr::null_memory_resource());
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Event, std::pmr::vector<Event>, std::greater<>> heap{
        std::greater<>{}, std::pmr::vector<Event>(&mem)};
    std::pmr::unordered_map<std::uint32_t, std::uint64_t> live(&mem);
    std::uint64_t x = 88172645463325252ULL;
    auto rnd = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::uint64_t sink = 0;
    const std::size_t pages = arena_.size() / 4096;
    const std::array<std::function<void(std::uint32_t)>, 4> handlers = {
        [&](std::uint32_t id) { live[id] = id; },
        [&](std::uint32_t id) {
          if (auto it = live.find(id); it != live.end()) {
            sink += it->second;
            live.erase(it);
          }
        },
        [&](std::uint32_t id) {
          std::memcpy(&arena_[(rnd() % pages) * 4096], &arena_[(rnd() % pages) * 4096], 4096);
          sink += id;
        },
        [&](std::uint32_t id) {
          sink += static_cast<std::uint64_t>(arena_[rnd() % arena_.size()]) + id;
        },
    };
    for (std::uint32_t i = 0; i < 64; ++i) heap.emplace(rnd() % 1000, i);
    for (int i = 0; i < kEvents; ++i) {
      const auto [when, id] = heap.top();
      heap.pop();
      handlers[(id + static_cast<std::uint32_t>(i)) & 3](id);
      heap.emplace(when + rnd() % 1000, static_cast<std::uint32_t>(rnd() % 4096));
    }
    return sink + live.size();
  }

  std::vector<std::byte> arena_;
  std::vector<std::byte> pool_;
  volatile std::uint64_t sink_ = 0;  ///< keeps the passes from being optimised away
};

// --- one round ------------------------------------------------------------------

struct Percentiles {
  std::size_t count = 0;
  std::uint64_t min = 0;
  std::map<std::string, double> at;  ///< "50", "90", "99", "99.9", "99.99" -> ns
};

Percentiles summarize(const LatencyRecorder& rec) {
  Percentiles p;
  p.count = rec.count();
  if (p.count == 0) return p;
  p.min = static_cast<std::uint64_t>(rec.min());
  for (const auto& [label, q] : std::vector<std::pair<std::string, double>>{
           {"50", 50}, {"90", 90}, {"99", 99}, {"99.9", 99.9}, {"99.99", 99.99}}) {
    p.at[label] = rec.percentile(q);
  }
  return p;
}

struct JobOutcome {
  std::string label;
  std::uint64_t planned_ops = 0;
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
  std::uint64_t verify_failures = 0;
  std::int64_t elapsed_ns = 0;
  Percentiles read;
  Percentiles write;
  std::uint64_t region_offset = 0;
  std::uint64_t region_blocks = 0;
};

/// Simulated self time per phase, summed over a traced round.
struct PhaseTotals {
  std::map<std::string, std::uint64_t> self_ns;
  std::uint64_t requests = 0;
  std::uint64_t spans = 0;
  std::uint64_t dropped = 0;
  /// Traces whose device-side spans are not exactly one of each device
  /// phase per read or write request: spans bound to the wrong request.
  std::uint64_t device_mismatched = 0;
};

struct RoundResult {
  bool warmup = false;  ///< first round: checked and fingerprinted, not timed
  bool traced = false;
  std::uint64_t setup_ns = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t ios = 0;
  /// Reference pass times for the set-up and the I/O phase: the mean of the
  /// passes before and after each (weighted by stage time over the stages).
  std::uint64_t setup_ref_ns = 0;
  std::uint64_t run_ref_ns = 0;
  std::uint64_t failed = 0;  ///< I/O errors, verify failures and missing ops
  std::uint64_t events = 0;
  std::string fingerprint;
  std::string outcome;
  // Simulated outputs; identical in every round of a seed.
  std::vector<JobOutcome> jobs;
  Percentiles all_read;  ///< every job's samples merged
  Percentiles all_write;
  std::uint32_t channels = 1;
  std::string registry_json;
  std::uint64_t aborted_cmds = 0;
  std::uint64_t resident_pages = 0;
  std::uint64_t store_resident_chunks = 0;
  std::uint64_t namespace_blocks = 0;
  PhaseTotals phases;
};

constexpr std::array<obs::Phase, 4> kDevicePhases = {
    obs::Phase::ctrl_fetch, obs::Phase::media, obs::Phase::data_dma, obs::Phase::cq_write};

/// Index of `p` in kDevicePhases, or -1 for a host-side phase.
int device_phase_index(obs::Phase p) {
  const auto* it = std::find(kDevicePhases.begin(), kDevicePhases.end(), p);
  return it == kDevicePhases.end() ? -1 : static_cast<int>(it - kDevicePhases.begin());
}

/// Per-phase self time: a span's duration minus the part of it covered by
/// its children. Only cq_wait has children (the device-side spans of the
/// same trace that fall inside it); every other phase is a leaf.
///
/// Every request here is one read or write command, which the controller
/// fetches, runs on the media, moves by DMA and completes exactly once. A
/// trace with any other set of device-side spans got spans of another
/// command and is counted in device_mismatched.
PhaseTotals aggregate_phases(std::vector<obs::SpanRecord> records) {
  PhaseTotals out;
  out.spans = records.size();
  std::stable_sort(records.begin(), records.end(),
                   [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
                     return a.trace < b.trace;
                   });
  std::vector<std::pair<sim::Time, sim::Time>> device;
  for (std::size_t i = 0; i < records.size();) {
    std::size_t j = i;
    device.clear();
    std::array<int, kDevicePhases.size()> device_spans{};
    bool io_request = false;
    for (; j < records.size() && records[j].trace == records[i].trace; ++j) {
      const obs::SpanRecord& r = records[j];
      const int d = device_phase_index(r.phase);
      if (r.track == obs::Track::controller && d >= 0) {
        device.emplace_back(r.begin, r.end);
        ++device_spans[d];
      }
      if (r.phase == obs::Phase::request) {
        io_request = r.kind == obs::Kind::read || r.kind == obs::Kind::write;
      }
    }
    const int expected = io_request ? 1 : 0;
    if (std::any_of(device_spans.begin(), device_spans.end(),
                    [&](int n) { return n != expected; })) {
      ++out.device_mismatched;
    }
    std::sort(device.begin(), device.end());
    for (std::size_t k = i; k < j; ++k) {
      const obs::SpanRecord& r = records[k];
      if (r.phase == obs::Phase::request) {
        ++out.requests;
        continue;
      }
      std::uint64_t self = static_cast<std::uint64_t>(r.duration());
      if (r.phase == obs::Phase::cq_wait && r.trace != 0) {
        // Subtract the union of device spans clipped to [begin, end).
        sim::Time cursor = r.begin;
        for (const auto& [b, e] : device) {
          const sim::Time lo = std::max(b, cursor);
          const sim::Time hi = std::min(e, r.end);
          if (hi > lo) {
            self -= static_cast<std::uint64_t>(hi - lo);
            cursor = hi;
          }
        }
      }
      out.self_ns[obs::phase_name(r.phase)] += self;
    }
    i = j;
  }
  return out;
}

/// One round. `ref_before` is the reference pass that ran just before it;
/// on return it holds the pass that ran just after.
RoundResult run_round(Builder build, std::uint64_t seed, bool traced, ReferencePass& reference,
                      std::uint64_t& ref_before) {
  RoundResult out;
  out.traced = traced;
  obs::Registry::global().reset_values();
  const int round_span = g_spans.open(traced ? "round.traced" : "round");
  auto owned = std::make_unique<Rig>();
  Rig& rig = *owned;

  const int setup_span = g_spans.open("setup");
  build(rig, seed);
  out.setup_ns = g_spans.close(setup_span);
  const std::uint64_t ref_mid = reference.run();
  out.setup_ref_ns = (ref_before + ref_mid) / 2;
  out.namespace_blocks = rig.namespace_blocks;
  out.channels = rig.channels;

  std::uint64_t planned_ios = 0;
  for (const auto& stage : rig.stages) {
    for (const Job& job : stage) planned_ios += job.spec.ops;
  }
  if (traced) {
    // Ample room for every span of the run: a request is at most ~11
    // spans, and a sharded request splits into at most two.
    obs::Tracer::global().enable(planned_ios * 32 + 4096);
  }

  LatencyRecorder all_reads;
  LatencyRecorder all_writes;
  Fnv samples;  // every latency sample of every job, in job order
  std::vector<std::uint64_t> events_before;
  for (const auto& bed : rig.beds) events_before.push_back(bed->engine().events_processed());
  // Stages are timed one by one with a reference pass after each, so a
  // long I/O phase is scaled by passes close to it in time.
  std::uint64_t ref_prev = ref_mid;
  double scaled_ns = 0;  // sum over stages of stage ns / mean of its passes
  for (const auto& stage : rig.stages) {
    const int run_span = g_spans.open("run");
    std::vector<sim::Future<Result<workload::JobResult>>> futures;
    for (const Job& job : stage) {
      futures.push_back(
          workload::run_job(job.bed->cluster(), *job.device, job.node, job.spec));
    }
    for (std::size_t i = 0; i < stage.size(); ++i) {
      auto result = stage[i].bed->wait(std::move(futures[i]), 600_s);
      if (!result) die("job " + stage[i].spec.name, result.status());
      JobOutcome jo;
      jo.label = stage[i].spec.name;
      jo.planned_ops = stage[i].spec.ops;
      jo.ops = result->ops_completed;
      jo.errors = result->errors;
      jo.verify_failures = result->verify_failures;
      jo.elapsed_ns = result->elapsed;
      jo.read = summarize(result->read_latency);
      jo.write = summarize(result->write_latency);
      jo.region_offset = stage[i].spec.region_offset_blocks;
      jo.region_blocks = stage[i].spec.region_blocks;
      out.ios += jo.ops;
      out.failed += jo.errors + jo.verify_failures + (jo.planned_ops - jo.ops);
      all_reads.merge(result->read_latency);
      all_writes.merge(result->write_latency);
      out.jobs.push_back(std::move(jo));
      for (const LatencyRecorder* rec : {&result->read_latency, &result->write_latency}) {
        samples.add(rec->samples().size());
        samples.add(rec->samples().data(), rec->samples().size() * sizeof(sim::Duration));
      }
    }
    const std::uint64_t stage_ns = g_spans.close(run_span);
    const std::uint64_t ref_next = reference.run();
    out.run_ns += stage_ns;
    scaled_ns += static_cast<double>(stage_ns) / (static_cast<double>(ref_prev + ref_next) / 2);
    ref_prev = ref_next;
  }
  ref_before = ref_prev;
  // The single pass time that scales run_ns exactly as the stages were scaled.
  out.run_ref_ns = static_cast<std::uint64_t>(static_cast<double>(out.run_ns) / scaled_ns);
  out.all_read = summarize(all_reads);
  out.all_write = summarize(all_writes);
  for (std::size_t b = 0; b < rig.beds.size(); ++b) {
    out.events += rig.beds[b]->engine().events_processed() - events_before[b];
  }

  if (traced) {
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.disable();
    out.phases = aggregate_phases(tracer.snapshot());
    out.phases.dropped = tracer.dropped();
    tracer.clear();
  }

  // Simulated state the layers leave behind, read before teardown.
  for (const auto& bed : rig.beds) {
    for (std::size_t s = 0; s < bed->substrate().space_count(); ++s) {
      out.resident_pages +=
          bed->substrate().host_dram(static_cast<fabric::HostId>(s)).resident_pages();
    }
    for (std::size_t d = 0; d < bed->device_count(); ++d) {
      out.store_resident_chunks += bed->controller(d).store().resident_chunks();
    }
  }
  for (const auto& client : rig.clients) {
    if (client->multiplexer() != nullptr) {
      out.aborted_cmds += client->multiplexer()->stats().aborted_cmds.value();
    }
  }
  out.registry_json = obs::Registry::global().to_json();

  Fnv outcome;
  outcome.add(samples.hex());
  for (const JobOutcome& jo : out.jobs) {
    outcome.add(jo.label);
    outcome.add(jo.ops);
    outcome.add(jo.errors);
    outcome.add(jo.verify_failures);
    outcome.add(static_cast<std::uint64_t>(jo.elapsed_ns));
  }
  for (const auto& bed : rig.beds) outcome.add(static_cast<std::uint64_t>(bed->engine().now()));
  out.outcome = outcome.hex();

  Fnv fp;
  fp.add(out.outcome);
  fp.add(out.registry_json);
  fp.add(out.resident_pages);
  fp.add(out.store_resident_chunks);
  fp.add(out.aborted_cmds);
  out.fingerprint = fp.hex();

  const int teardown_span = g_spans.open("teardown");
  owned.reset();  // members go in reverse order: devices, clients, managers, testbeds
  g_spans.close(teardown_span);
  g_spans.close(round_span);
  return out;
}

// --- isolated probes (traced runs) --------------------------------------------------
//
// Each probe times batches of one call on a fresh object after a warm-up
// batch, and reports the median batch's ns per call. Engine work the calls
// schedule (posted-write arrivals) is drained between batches, untimed.

constexpr int kProbeBatches = 41;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// `batch` runs `per_batch` calls and returns the wall ns they took.
double probe(int per_batch, const std::function<std::uint64_t()>& batch) {
  (void)batch();  // warm-up: lazy set-up and first-touch are not counted
  std::vector<double> per_call;
  for (int i = 0; i < kProbeBatches; ++i) {
    per_call.push_back(static_cast<double>(batch()) / per_batch);
  }
  return median(per_call);
}

void check(const Status& st, const char* what) {
  if (!st) die(what, st);
}

/// Substrate calls on a fresh 2-host testbed, at the places the driver uses
/// them on that substrate: the client's CQ (local DRAM on NTB, the pool on
/// CXL), the device-side SQ, and the client's data buffers for device DMA.
std::map<std::string, double> probe_substrate(fabric::SubstrateKind kind) {
  workload::TestbedConfig cfg;
  cfg.substrate = kind;
  cfg.hosts = 2;
  workload::Testbed bed(cfg);
  fabric::Substrate& sub = bed.substrate();
  sim::Engine& engine = bed.engine();
  const bool ntb = kind == fabric::SubstrateKind::ntb;
  const auto pool = static_cast<fabric::HostId>(sub.space_count() - 1);
  constexpr std::uint64_t kRegion = 1 * MiB;

  // A 1 MiB range in `owner`'s space: host DRAM from the cluster allocator,
  // or a fixed offset in the otherwise unused pool. Returns the address as
  // `viewer` sees it through a window of the given intent.
  std::vector<fabric::Window> windows;
  std::uint64_t next_pool_offset = 256 * MiB;
  auto range = [&](fabric::MapIntent intent, fabric::HostId viewer, fabric::HostId owner) {
    std::uint64_t addr = 0;
    if (owner == pool && !ntb) {
      addr = next_pool_offset;
      next_pool_offset += kRegion;
    } else {
      auto a = bed.cluster().alloc_dram(owner, kRegion, 4096);
      if (!a) die("probe alloc", a.status());
      addr = *a;
    }
    auto win = sub.map_window(intent, viewer, owner, addr, kRegion);
    if (!win) die("probe window", win.status());
    windows.push_back(std::move(*win));
    return windows.back().addr();
  };

  // CQ polling by the client (host 1).
  const std::uint64_t cq = range(fabric::MapIntent::cpu, 1, ntb ? 1 : pool);
  std::vector<std::byte> fill(kRegion, std::byte{1});
  check(sub.post_write(sub.cpu(1), cq, fill).status(), "probe cq fill");
  engine.run();
  // The device-side SQ: host 0's DRAM through the NTB on PCIe, the pool on CXL.
  const std::uint64_t sq = range(fabric::MapIntent::cpu, 1, ntb ? 0 : pool);
  // Client data buffers, reached by the controller's DMA engine.
  const std::uint64_t buf = range(fabric::MapIntent::dma, bed.device_host(0), ntb ? 1 : pool);
  const fabric::Initiator dma = bed.controller(0).dma_initiator();

  std::map<std::string, double> out;
  constexpr int kPolls = 4096;
  out["poll_read_ns"] = probe(kPolls, [&] {
    std::array<std::byte, 16> cqe{};
    const std::uint64_t t0 = wall_ns();
    for (int i = 0; i < kPolls; ++i) {
      check(sub.poll_read(1, cq + static_cast<std::uint64_t>(i % 64) * 16, cqe), "poll_read");
    }
    return wall_ns() - t0;
  });

  constexpr int kPosts = 1024;
  std::array<std::byte, 64> sqe{};
  out["post_write_64b_ns"] = probe(kPosts, [&] {
    const std::uint64_t t0 = wall_ns();
    for (int i = 0; i < kPosts; ++i) {
      check(sub.post_write(sub.cpu(1), sq + static_cast<std::uint64_t>(i % 64) * 64,
                           sqe)
                .status(),
            "post_write");
    }
    const std::uint64_t t = wall_ns() - t0;
    engine.run();
    return t;
  });

  constexpr int kSgWrites = 64;
  std::vector<std::byte> payload(64 * 1024, std::byte{7});
  std::vector<fabric::SgEntry> sg;
  for (std::uint32_t p = 0; p < 16; ++p) {
    sg.push_back(fabric::SgEntry{buf + p * 4096ULL, 4096});
  }
  out["write_sg_64k_ns"] = probe(kSgWrites, [&] {
    const std::uint64_t t0 = wall_ns();
    for (int i = 0; i < kSgWrites; ++i) check(sub.write_sg(dma, sg, payload).status(), "write_sg");
    const std::uint64_t t = wall_ns() - t0;
    engine.run();
    return t;
  });
  return out;
}

std::map<std::string, double> probe_mem() {
  std::map<std::string, double> out;
  std::vector<std::byte> buf(mem::PhysMem::kPageSize, std::byte{3});
  constexpr int kPages = 256;
  mem::PhysMem warm(1 * GiB);
  for (int p = 0; p < kPages; ++p) check(warm.write(p * mem::PhysMem::kPageSize, buf), "write");
  constexpr int kOps = 4096;
  out["read_4k_ns"] = probe(kOps, [&] {
    const std::uint64_t t0 = wall_ns();
    for (int i = 0; i < kOps; ++i) {
      check(warm.read(static_cast<std::uint64_t>(i % kPages) * mem::PhysMem::kPageSize, buf),
            "read");
    }
    return wall_ns() - t0;
  });
  out["write_4k_ns"] = probe(kOps, [&] {
    const std::uint64_t t0 = wall_ns();
    for (int i = 0; i < kOps; ++i) {
      check(warm.write(static_cast<std::uint64_t>(i % kPages) * mem::PhysMem::kPageSize, buf),
            "write");
    }
    return wall_ns() - t0;
  });
  constexpr int kTouches = 1024;
  out["first_touch_4k_ns"] = probe(kTouches, [&] {
    auto fresh = std::make_unique<mem::PhysMem>(1 * GiB);
    const std::uint64_t t0 = wall_ns();
    for (int i = 0; i < kTouches; ++i) {
      check(fresh->write(static_cast<std::uint64_t>(i) * mem::PhysMem::kPageSize, buf), "touch");
    }
    return wall_ns() - t0;
  });
  return out;
}

/// QueuePair push + reap on a fresh NTB testbed: SQ and CQ in the
/// operating host's DRAM; the completions a controller would post are
/// written into the CQ between the timed push and reap phases.
double probe_queue_pair() {
  workload::TestbedConfig cfg;
  cfg.hosts = 2;
  workload::Testbed bed(cfg);
  constexpr std::uint16_t kEntries = 64;
  constexpr int kBatch = 32;
  auto sq = bed.cluster().alloc_dram(1, kEntries * sizeof(nvme::SubmissionEntry), 4096);
  auto cq = bed.cluster().alloc_dram(1, kEntries * sizeof(nvme::CompletionEntry), 4096);
  if (!sq || !cq) die("probe qp alloc", Status(Errc::resource_exhausted, "dram"));
  nvme::QueuePair::Config qc;
  qc.qid = 1;
  qc.sq_size = kEntries;
  qc.cq_size = kEntries;
  qc.sq_write_addr = *sq;
  qc.cq_poll_addr = *cq;
  qc.cpu = bed.substrate().cpu(1);
  nvme::QueuePair qp(bed.substrate(), qc);
  mem::PhysMem& dram = bed.substrate().host_dram(1);

  std::uint64_t cq_slot = 0;  // CQ entries posted so far; phase flips per lap
  std::array<std::uint16_t, kBatch> cids{};
  std::array<nvme::CompletionEntry, kBatch> reaped{};
  return probe(kBatch, [&] {
    nvme::SubmissionEntry sqe;
    sqe.opcode = 0x02;
    std::uint64_t t = 0;
    std::uint64_t t0 = wall_ns();
    for (int i = 0; i < kBatch; ++i) {
      auto cid = qp.push(sqe);
      if (!cid) die("probe push", cid.status());
      cids[i] = *cid;
    }
    t += wall_ns() - t0;
    bed.engine().run();
    for (int i = 0; i < kBatch; ++i, ++cq_slot) {
      nvme::CompletionEntry cqe;
      cqe.sqid = 1;
      cqe.cid = cids[i];
      cqe.set_phase((cq_slot / kEntries) % 2 == 0);
      check(dram.write_pod(*cq + (cq_slot % kEntries) * sizeof cqe, cqe), "cqe");
    }
    t0 = wall_ns();
    const std::size_t n = qp.reap(reaped);
    t += wall_ns() - t0;
    if (n != kBatch) die("probe reap", Status(Errc::internal, "short reap"));
    return t;
  });
}

// --- output -------------------------------------------------------------------------

void append(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

void append_percentiles(std::string& out, const Percentiles& p) {
  append(out, "{\"count\":%zu,\"min_ns\":%" PRIu64 ",\"pct_ns\":{", p.count, p.min);
  bool first = true;
  for (const auto& [label, v] : p.at) {
    append(out, "%s\"%s\":%.1f", first ? "" : ",", label.c_str(), v);
    first = false;
  }
  out += "}}";
}

void append_doubles(std::string& out, const std::map<std::string, double>& m) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    append(out, "%s\"%s\":%.3f", first ? "" : ",", k.c_str(), v);
    first = false;
  }
  out += '}';
}

/// `reference_bytes` is taken off the peak RSS: the reference pass is not
/// the simulator's memory.
std::string document(const std::string& workload, std::uint64_t seed, bool trace,
                     std::uint64_t reference_bytes,
                     const std::vector<RoundResult>& rounds,
                     const std::map<std::string, std::map<std::string, double>>& probes) {
  std::string out;
  append(out, "{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"rounds\":[", workload.c_str(),
         seed);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    append(out,
           "%s{\"warmup\":%s,\"traced\":%s,\"setup_ns\":%" PRIu64 ",\"run_ns\":%" PRIu64
           ",\"ios\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"events\":%" PRIu64
           ",\"setup_ref_ns\":%" PRIu64 ",\"run_ref_ns\":%" PRIu64
           ",\"fingerprint\":\"%s\",\"outcome\":\"%s\"}",
           i == 0 ? "" : ",", r.warmup ? "true" : "false", r.traced ? "true" : "false",
           r.setup_ns, r.run_ns, r.ios, r.failed, r.events, r.setup_ref_ns, r.run_ref_ns,
           r.fingerprint.c_str(),
           r.outcome.c_str());
  }
  out += "]";

  const RoundResult& first = rounds.front();
  out += ",\"jobs\":[";
  for (std::size_t i = 0; i < first.jobs.size(); ++i) {
    const JobOutcome& j = first.jobs[i];
    append(out,
           "%s{\"label\":\"%s\",\"planned_ops\":%" PRIu64 ",\"ops\":%" PRIu64 ",\"errors\":%" PRIu64
           ",\"verify_failures\":%" PRIu64 ",\"elapsed_ns\":%" PRId64
           ",\"region_offset\":%" PRIu64 ",\"region_blocks\":%" PRIu64 ",\"read\":",
           i == 0 ? "" : ",", j.label.c_str(), j.planned_ops, j.ops, j.errors, j.verify_failures,
           j.elapsed_ns, j.region_offset, j.region_blocks);
    append_percentiles(out, j.read);
    out += ",\"write\":";
    append_percentiles(out, j.write);
    out += '}';
  }
  out += "],\"all_read\":";
  append_percentiles(out, first.all_read);
  out += ",\"all_write\":";
  append_percentiles(out, first.all_write);
  append(out,
         ",\"channels\":%u,\"aborted_cmds\":%" PRIu64 ",\"resident_pages\":%" PRIu64
         ",\"store_resident_chunks\":%" PRIu64 ",\"namespace_blocks\":%" PRIu64,
         first.channels, first.aborted_cmds, first.resident_pages, first.store_resident_chunks,
         first.namespace_blocks);
  out += ",\"registry\":" + first.registry_json;

  out += ",\"calls\":{";
  bool first_call = true;
  for (const auto& [name, samples] : g_calls) {
    append(out, "%s\"%s\":[", first_call ? "" : ",", name.c_str());
    first_call = false;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      append(out, "%s%" PRIu64, i == 0 ? "" : ",", samples[i]);
    }
    out += ']';
  }
  out += '}';

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  append(out, ",\"peak_rss_kb\":%ld",
         ru.ru_maxrss - static_cast<long>(reference_bytes / 1024));

  if (trace) {
    const RoundResult* traced = nullptr;
    for (const RoundResult& r : rounds) {
      if (r.traced) {
        traced = &r;
        break;
      }
    }
    std::uint64_t dropped = 0;
    std::uint64_t mismatched = 0;
    for (const RoundResult& r : rounds) {
      dropped += r.phases.dropped;
      mismatched += r.phases.device_mismatched;
    }
    append(out, ",\"trace\":{\"dropped\":%" PRIu64 ",\"device_mismatched\":%" PRIu64
                ",\"requests\":%" PRIu64 ",\"spans\":%" PRIu64 ",\"self_ns\":{",
           dropped, mismatched, traced->phases.requests, traced->phases.spans);
    bool first_phase = true;
    for (const auto& [name, ns] : traced->phases.self_ns) {
      append(out, "%s\"%s\":%" PRIu64, first_phase ? "" : ",", name.c_str(), ns);
      first_phase = false;
    }
    out += "}}";

    out += ",\"probes\":{";
    bool first_probe = true;
    for (const auto& [layer, values] : probes) {
      append(out, "%s\"%s\":", first_probe ? "" : ",", layer.c_str());
      first_probe = false;
      append_doubles(out, values);
    }
    out += '}';

    out += ",\"host_spans\":[";
    const auto& spans = g_spans.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      append(out, "%s[\"%s\",%d,%" PRIu64 ",%" PRIu64 "]", i == 0 ? "" : ",",
             spans[i].name.c_str(), spans[i].parent, spans[i].begin, spans[i].end);
    }
    out += ']';
  }
  out += "}\n";
  return out;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload paper-qd1|deep-mixed|tenants-64k --seed N "
               "--seconds S [--trace 0|1] [--rounds N]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 2024;
  double seconds = 10;
  std::size_t fixed_rounds = 0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 0);
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else if (key == "--rounds") {
      fixed_rounds = std::strtoull(value, nullptr, 0);
    } else {
      usage();
    }
  }
  if (argc % 2 == 0) usage();
  const Builder build = builder_for(workload);
  if (build == nullptr || seconds <= 0) usage();

  // Rounds run until the budget is spent, at least kMinRounds of them. The
  // first is a warm-up (allocator growth, cold caches) and is not timed. A
  // traced run alternates traced and untraced rounds so both see the same
  // machine state.
  constexpr std::size_t kMinRounds = 5;
  std::vector<RoundResult> rounds;
  const std::uint64_t budget = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t start = wall_ns();
  const auto more = [&] {
    if (fixed_rounds > 0) return rounds.size() < fixed_rounds;
    return rounds.size() < kMinRounds || wall_ns() - start < budget;
  };
  // Reference passes bracket the set-up and the I/O phase of every round;
  // the first pass only touches the arena and is not used.
  ReferencePass reference;
  (void)reference.run();
  std::uint64_t ref_before = reference.run();
  while (more()) {
    const bool traced_round = trace && rounds.size() % 2 == 0;
    rounds.push_back(run_round(build, seed, traced_round, reference, ref_before));
    rounds.back().warmup = rounds.size() == 1;
  }

  std::map<std::string, std::map<std::string, double>> probes;
  if (trace) {
    probes["pcie"] = probe_substrate(fabric::SubstrateKind::ntb);
    probes["cxl"] = probe_substrate(fabric::SubstrateKind::cxl);
    probes["mem"] = probe_mem();
    probes["nvme"] = {{"queue_push_reap_ns", probe_queue_pair()}};
  }
  const std::string doc =
      document(workload, seed, trace, reference.resident_bytes(), rounds, probes);
  std::fwrite(doc.data(), 1, doc.size(), stdout);
  return 0;
}
