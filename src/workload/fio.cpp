#include "workload/fio.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"

namespace nvmeshare::workload {

namespace {

/// Shared state of one running job.
struct JobContext {
  JobSpec spec;
  sisci::Cluster* cluster = nullptr;
  block::BlockDevice* device = nullptr;
  sisci::NodeId node = 0;
  std::uint32_t blocks_per_op = 0;
  std::uint64_t region_start = 0;
  std::uint64_t region_blocks = 0;
  sim::Time deadline = 0;
  sim::Time start_time = 0;
  std::uint64_t next_op = 0;
  std::uint64_t seq_cursor = 0;
  std::uint32_t workers_alive = 0;
  JobResult result;
  std::unordered_map<std::uint64_t, std::uint64_t> written;  ///< lba -> pattern seed (verify)
  std::uint64_t pattern_counter = 1;
  sim::Promise<Result<JobResult>> done;
  std::vector<std::uint64_t> buffers;  ///< one per worker

  JobContext(sim::Engine& engine) : done(engine) {}
};

bool job_should_continue(JobContext& ctx, sim::Engine& engine) {
  if (ctx.spec.ops > 0) return ctx.next_op < ctx.spec.ops;
  return engine.now() < ctx.deadline;
}

sim::Task worker(std::shared_ptr<JobContext> ctx, std::uint32_t worker_index,
                 std::uint64_t seed) {
  sim::Engine& engine = ctx->cluster->engine();
  mem::PhysMem& dram = ctx->cluster->fabric().host_dram(ctx->node);
  Rng rng(seed);
  const std::uint64_t buffer = ctx->buffers[worker_index];
  const std::uint32_t bytes = ctx->spec.block_bytes;

  // With verification enabled, each worker owns a disjoint slice of the
  // region: otherwise two in-flight requests can legitimately race on one
  // LBA and the expected-content model would report false corruption.
  std::uint64_t my_start = ctx->region_start;
  std::uint64_t my_blocks = ctx->region_blocks;
  if (ctx->spec.verify && ctx->spec.queue_depth > 1) {
    std::uint64_t slice = ctx->region_blocks / ctx->spec.queue_depth;
    slice -= slice % ctx->blocks_per_op;
    if (slice >= ctx->blocks_per_op) {
      my_start = ctx->region_start + worker_index * slice;
      my_blocks = slice;
    }
  }

  while (job_should_continue(*ctx, engine)) {
    ++ctx->next_op;

    // Pick the operation and the target LBA.
    bool is_read = false;
    bool is_trim = false;
    switch (ctx->spec.pattern) {
      case JobSpec::Pattern::randread:
      case JobSpec::Pattern::seqread: is_read = true; break;
      case JobSpec::Pattern::randwrite:
      case JobSpec::Pattern::seqwrite: is_read = false; break;
      case JobSpec::Pattern::randrw: is_read = rng.uniform01() < ctx->spec.read_fraction; break;
      case JobSpec::Pattern::randtrim: is_trim = true; break;
    }
    const bool sequential = ctx->spec.pattern == JobSpec::Pattern::seqread ||
                            ctx->spec.pattern == JobSpec::Pattern::seqwrite;
    const std::uint64_t slots = my_blocks / ctx->blocks_per_op;
    std::uint64_t slot_index;
    if (sequential) {
      slot_index = ctx->seq_cursor++ % slots;
    } else {
      slot_index = rng.uniform(slots);
    }
    const std::uint64_t lba = my_start + slot_index * ctx->blocks_per_op;

    std::uint64_t pattern_seed = 0;
    if (!is_read && !is_trim) {
      pattern_seed = (ctx->spec.seed << 20) ^ ctx->pattern_counter++;
      (void)dram.visit_mut(buffer, bytes, [&](std::uint64_t off, ByteSpan page) {
        fill_pattern(page, pattern_seed, off);
      });
    }

    block::Request request;
    request.op = is_trim ? block::Op::discard
                         : (is_read ? block::Op::read : block::Op::write);
    request.lba = lba;
    request.nblocks = ctx->blocks_per_op;
    request.buffer_addr = is_trim ? 0 : buffer;

    block::Completion completion = co_await ctx->device->submit(request);

    ++ctx->result.ops_completed;
    if (!completion.status) {
      ++ctx->result.errors;
      NVS_LOG(debug, "fio") << ctx->spec.name
                            << " op failed: " << completion.status.to_string();
    } else {
      ctx->result.total_latency.add(completion.latency_ns);
      if (is_read) {
        ctx->result.read_latency.add(completion.latency_ns);
      } else {
        // Trims are write-class for latency accounting (as in fio).
        ctx->result.write_latency.add(completion.latency_ns);
        // Pattern seed 0 is the "expect zeroes" sentinel used for trims.
        if (ctx->spec.verify) ctx->written[lba] = is_trim ? 0 : pattern_seed;
      }
      if (is_read && ctx->spec.verify) {
        auto it = ctx->written.find(lba);
        if (it != ctx->written.end()) {
          const std::uint64_t expect = it->second;
          bool good = true;
          (void)dram.visit(buffer, bytes, [&](std::uint64_t off, ConstByteSpan page) {
            good = good && (expect == 0 ? is_zero(page) : check_pattern(page, expect, off));
          });
          if (!good) ++ctx->result.verify_failures;
        }
      }
    }
  }

  if (--ctx->workers_alive == 0) {
    ctx->result.elapsed = engine.now() - ctx->start_time;
    for (std::uint64_t buf : ctx->buffers) (void)ctx->cluster->free_dram(ctx->node, buf);
    ctx->done.set(std::move(ctx->result));
  }
  co_return;
}

sim::Task start_job(std::shared_ptr<JobContext> ctx) {
  // Separate task so run_job can return the future immediately.
  for (std::uint32_t w = 0; w < ctx->spec.queue_depth; ++w) {
    worker(ctx, w, ctx->spec.seed * 0x9e3779b97f4a7c15ULL + w + 1);
  }
  co_return;
}

}  // namespace

sim::Future<Result<JobResult>> run_job(sisci::Cluster& cluster, block::BlockDevice& device,
                                       sisci::NodeId node, JobSpec spec) {
  auto ctx = std::make_shared<JobContext>(cluster.engine());
  auto future = ctx->done.future();

  if (spec.block_bytes == 0 || spec.block_bytes % device.block_size() != 0 ||
      spec.queue_depth == 0 || (spec.ops == 0 && spec.duration <= 0)) {
    ctx->done.set(Status(Errc::invalid_argument, "bad job spec"));
    return future;
  }
  ctx->spec = spec;
  ctx->cluster = &cluster;
  ctx->device = &device;
  ctx->node = node;
  ctx->blocks_per_op = spec.block_bytes / device.block_size();

  // Working set: default to ~1 GiB so random offsets stay cache-friendly.
  std::uint64_t region = spec.region_blocks;
  if (region == 0) {
    region = std::min<std::uint64_t>(device.capacity_blocks(), GiB / device.block_size());
  }
  region -= region % ctx->blocks_per_op;
  if (region < ctx->blocks_per_op ||
      spec.region_offset_blocks + region > device.capacity_blocks()) {
    ctx->done.set(Status(Errc::invalid_argument, "job region out of range"));
    return future;
  }
  ctx->region_start = spec.region_offset_blocks;
  ctx->region_blocks = region;
  ctx->start_time = cluster.engine().now();
  ctx->deadline = spec.duration > 0 ? ctx->start_time + spec.duration : ctx->start_time;
  ctx->workers_alive = spec.queue_depth;

  for (std::uint32_t w = 0; w < spec.queue_depth; ++w) {
    auto buf = cluster.alloc_dram(node, align_up(spec.block_bytes, 4096), 4096);
    if (!buf) {
      for (std::uint64_t b : ctx->buffers) (void)cluster.free_dram(node, b);
      ctx->done.set(buf.status());
      return future;
    }
    ctx->buffers.push_back(*buf);
  }
  start_job(ctx);
  return future;
}

Result<JobResult> run_job_blocking(sisci::Cluster& cluster, block::BlockDevice& device,
                                   sisci::NodeId node, const JobSpec& spec) {
  auto future = run_job(cluster, device, node, spec);
  // Generous bound: jobs always terminate by op count or deadline; ten
  // simulated minutes without resolution means the stack deadlocked.
  const sim::Time give_up = cluster.engine().now() + 600_s;
  while (!future.ready() && cluster.engine().pending_events() > 0 &&
         cluster.engine().now() < give_up) {
    cluster.engine().run_until(cluster.engine().now() + 10_ms);
  }
  if (!future.ready()) {
    return Status(Errc::internal, "job did not finish (deadlocked simulation?)");
  }
  return *future.try_take();
}

}  // namespace nvmeshare::workload
