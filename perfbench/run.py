#!/usr/bin/env python3
"""Host-cost benchmark of the nvmeshare simulator.

Builds the simulator and the workload runner (hostbench) from source, runs
one closed-loop workload for a wall-clock budget, derives the metrics,
checks the simulated outputs and prints one JSON result as the last line:

    python3 perfbench/run.py --workload paper-qd1 --seed 2024 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced then traced
    python3 perfbench/run.py --record-fingerprints   # rewrite fingerprints.json

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (see
perfbench/METRICS.md). The exit code is nonzero when any check fails: an I/O
error, a verify failure, a mux abort, a dropped or misattributed trace span,
overlapping tenant regions, a fingerprint that differs between rounds, or an
outcome digest that differs from the one fingerprints.json keeps for the
workload and seed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper-qd1", "deep-mixed", "tenants-64k")

# Reference outcome digests per workload and seed. A change that is meant to
# alter simulated behaviour (a model fix) rewrites them with
# --record-fingerprints; any other change must leave them as they are.
REFERENCE_PATH = os.path.join(BENCH_DIR, "fingerprints.json")
RECORD_SEEDS = tuple(range(32)) + (2024,)

# Remote-minus-local minimum QD1 latency the paper reports (Fig. 10,
# Section VI); bench/fig10_latency prints the same constants.
PAPER_DELTA_US = {"read": 1.0, "write": 2.0}

# Phases whose mean simulated self time per request is reported.
PHASES = ("submit", "bounce_copy", "sq_write", "doorbell", "cq_wait", "completion",
          "ctrl_fetch", "media", "data_dma", "cq_write")

PERCENTILE_LABELS = ("99.99", "99.9", "99", "90", "50")

# Round times are scaled to the machine speed at which hostbench's reference
# pass takes this long (about its time on a quiet 4-vCPU Sapphire Rapids VM).
REF_NOMINAL_NS = 15_000_000


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- derivations (pure; tested by test_run.py) ---------------------------------------


def ratio(num, den):
    return num / den if den else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(summary):
    """Highest reported percentile with at least ten samples beyond it."""
    count = summary["count"]
    for label in PERCENTILE_LABELS:
        if count * (100.0 - float(label)) / 100.0 >= 10 - 1e-9:
            return label, summary["pct_ns"][label]
    return None, None


def paper_delta_err_us(jobs):
    """max over read/write of |(ours-remote min - ours-local min) - paper|."""
    mins = {job["label"]: job for job in jobs}
    errs = []
    for direction, paper in PAPER_DELTA_US.items():
        pattern = "rand" + direction
        local = mins.get("ours-local/" + pattern)
        remote = mins.get("ours-remote/" + pattern)
        if local is None or remote is None:
            return None
        delta_us = (remote[direction]["min_ns"] - local[direction]["min_ns"]) / 1000.0
        errs.append(abs(delta_us - paper))
    return max(errs)


def timed_rounds(rounds, traced):
    """Rounds that count for timing: not the warm-up, traced or not."""
    return [r for r in rounds if not r["warmup"] and r["traced"] == traced]


def at_nominal_speed(ns, ref_ns):
    """A wall time, scaled by the reference passes around it (mean `ref_ns`)
    to the machine speed at which a pass takes REF_NOMINAL_NS."""
    return ns * REF_NOMINAL_NS / ref_ns


def round_us_per_io(rounds, traced):
    return [at_nominal_speed(r["run_ns"], r["run_ref_ns"]) / 1000.0 / r["ios"]
            for r in timed_rounds(rounds, traced)]


def end_to_end(raw):
    untraced = timed_rounds(raw["rounds"], False)
    return {
        "host_us_per_io": (median(round_us_per_io(raw["rounds"], False)), "us"),
        "setup_s": (median([at_nominal_speed(r["setup_ns"], r["setup_ref_ns"]) / 1e9
                            for r in untraced]), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(raw, perf):
    """Per-layer metrics from a traced run and the nvsh_perf results."""
    c = raw["registry"]["counters"]

    def count(name):
        return c.get("nvmeshare." + name, 0)

    def engine_sum(suffix):
        return sum(v for k, v in c.items()
                   if k.startswith("nvmeshare.engine.") and k.endswith(suffix))

    ios = raw["rounds"][0]["ios"]
    events = raw["rounds"][0]["events"]
    untraced = timed_rounds(raw["rounds"], False)
    untraced_ns_per_event = [at_nominal_speed(r["run_ns"], r["run_ref_ns"]) / r["events"]
                             for r in untraced]
    calls = raw["calls"]
    probes = raw["probes"]
    trace = raw["trace"]
    us_untraced = median(round_us_per_io(raw["rounds"], False))
    us_traced = median(round_us_per_io(raw["rounds"], True))
    delta = paper_delta_err_us(raw["jobs"])

    m = {
        "machine.ref_pass_ms": (median([r["run_ref_ns"] / 1e6 for r in untraced]), "ms"),
        "machine.raw_host_us_per_io": (
            median([r["run_ns"] / 1000.0 / r["ios"] for r in untraced]), "us"),
        "sim.events_per_io": (ratio(events, ios), "events/io"),
        "sim.host_ns_per_event": (median(untraced_ns_per_event), "ns"),
        "sim.dispatch_ns": (perf["engine_ns_per_event"], "ns"),
        "driver.poll_rounds_per_io": (ratio(count("client.poll_rounds"), ios), "rounds/io"),
        "driver.useful_poll_ratio": (
            ratio(count("queue.reap_batches"), count("client.poll_rounds") * raw["channels"]),
            "ratio"),
        "driver.bounce_copy_bytes_per_io": (
            ratio(count("client.bounce_copy_bytes"), ios), "B/io"),
        "driver.manager_start_s": (median(calls.get("manager_start", [])) / 1e9, "s"),
        "driver.client_attach_s": (median(calls.get("client_attach", [])) / 1e9, "s"),
        "nvme.cqes_per_reap": (
            ratio(count("queue.cqes_consumed"), count("queue.reap_batches")), "cqes/reap"),
        "nvme.doorbells_per_cmd": (
            ratio(count("controller.doorbell_writes"), count("controller.commands_fetched")),
            "doorbells/cmd"),
        "nvme.fetch_dma_reads_per_cmd": (
            ratio(count("controller.fetch_dma_reads"), count("controller.commands_fetched")),
            "reads/cmd"),
        "nvme.queue_push_reap_ns": (probes["nvme"]["queue_push_reap_ns"], "ns"),
        "nvme.cid_exhausted": (count("queue.cid_exhausted"), "count"),
        "nvme.store_resident_chunks": (raw["store_resident_chunks"], "count"),
        "block.cmd_ns": (perf["io_ns_per_cmd"], "ns"),
        "block.cmds_per_doorbell": (
            ratio(engine_sum(".coalesced_cmds"), engine_sum(".doorbell_writes")),
            "cmds/doorbell"),
        "block.shard_sub_requests_per_request": (
            ratio(count("mux.shard_sub_requests"), count("mux.shard_requests")), "ratio"),
        "block.shard_splits_per_request": (
            ratio(count("mux.shard_splits"), count("mux.shard_requests")), "ratio"),
        "mux.drr_rounds_per_cmd": (
            ratio(count("mux.drr_rounds"), count("mux.dispatched_cmds")), "rounds/cmd"),
        "mux.deferred_cmds": (count("mux.deferred_cmds"), "count"),
        "mux.aborted_cmds": (raw["aborted_cmds"], "count"),
        "mux.create_share_s": (median(calls.get("create_share", [])) / 1e9, "s"),
        "fabric.posted_writes_per_io": (ratio(count("fabric.posted_writes"), ios), "writes/io"),
        "fabric.reads_per_io": (ratio(count("fabric.reads"), ios), "reads/io"),
        "fabric.bytes_per_io": (
            ratio(count("fabric.bytes_written") + count("fabric.bytes_read"), ios), "B/io"),
        "fabric.ntb_translations_per_io": (
            ratio(count("fabric.ntb_translations"), ios), "translations/io"),
        "mem.resident_pages": (raw["resident_pages"], "count"),
        "obs.trace_overhead_pct": (100.0 * (ratio(us_traced, us_untraced) - 1.0), "%"),
        "obs.trace_dropped": (trace["dropped"], "count"),
        # 0 on workloads without the ours-local/ours-remote QD1 pair.
        "paper_delta_err_us": (delta if delta is not None else 0.0, "sim_us"),
    }
    for substrate in ("pcie", "cxl"):
        for call in ("poll_read_ns", "post_write_64b_ns", "write_sg_64k_ns"):
            m[substrate + "." + call] = (probes[substrate][call], "ns")
    for call in ("read_4k_ns", "write_4k_ns", "first_touch_4k_ns"):
        m["mem." + call] = (probes["mem"][call], "ns")
    for phase in PHASES:
        m["phase." + phase + "_ns"] = (
            ratio(trace["self_ns"].get(phase, 0), trace["requests"]), "sim_ns")
    return m


def regions_overlap(regions):
    """First pair of overlapping [offset, offset + blocks) ranges, or None."""
    ordered = sorted(regions)
    for (a_off, a_len), (b_off, b_len) in zip(ordered, ordered[1:]):
        if a_off + a_len > b_off:
            return (a_off, a_len), (b_off, b_len)
    return None


def check(raw, reference):
    """Correctness problems of one run; an empty list means correct.

    `reference` is the outcome digest fingerprints.json keeps for this
    workload and seed, or None when it keeps none.
    """
    problems = []
    for job in raw["jobs"]:
        if job["ops"] != job["planned_ops"]:
            problems.append("%s completed %d of %d ops" % (job["label"], job["ops"],
                                                           job["planned_ops"]))
        if job["errors"]:
            problems.append("%s: %d I/O errors" % (job["label"], job["errors"]))
        if job["verify_failures"]:
            problems.append("%s: %d verify failures" % (job["label"], job["verify_failures"]))
    if raw["aborted_cmds"]:
        problems.append("%d mux commands aborted" % raw["aborted_cmds"])
    prints = {r["fingerprint"] for r in raw["rounds"]}
    if len(prints) != 1:
        problems.append("rounds of one seed disagree: fingerprints %s" % sorted(prints))
    outcome = raw["rounds"][0]["outcome"]
    if reference is not None and outcome != reference:
        problems.append("outcome %s differs from the reference %s in fingerprints.json"
                        % (outcome, reference))
    if raw["workload"] == "tenants-64k":
        regions = [(j["region_offset"], j["region_blocks"]) for j in raw["jobs"]]
        overlap = regions_overlap(regions)
        if overlap:
            problems.append("tenant regions overlap: %s" % (overlap,))
        if any(off + n > raw["namespace_blocks"] for off, n in regions):
            problems.append("a tenant region exceeds the namespace")
    if raw["trace"]:
        if raw["trace"]["dropped"]:
            problems.append("tracer dropped %d spans" % raw["trace"]["dropped"])
        if raw["trace"]["device_mismatched"]:
            problems.append("%d traced requests got another command's device spans"
                            % raw["trace"]["device_mismatched"])
        if not raw["trace"]["requests"]:
            problems.append("traced rounds recorded no requests")
    return problems


def failed_ops(raw):
    """I/O errors, verify failures and missing ops, summed over every round."""
    return sum(r["failed"] for r in raw["rounds"])


def span_totals(spans):
    """Count and total wall ms of the benchmark's own host spans, per name."""
    totals = {}
    for name, _parent, begin, end in spans:
        n, ms = totals.get(name, (0, 0.0))
        totals[name] = (n + 1, ms + (end - begin) / 1e6)
    return totals


# --- running ----------------------------------------------------------------------------


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources not found next to perfbench/")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs], check=True, stdout=sys.stderr)


def run_json(cmd, deadline):
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("%s failed (%d): %s" % (cmd[0], proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout)


def nvsh_perf(out_dir, deadline):
    """sim.dispatch_ns and block.cmd_ns from the unmodified nvsh_perf harness."""
    exe = os.path.join(out_dir, "nvsh_perf")
    engine, io = [], []
    for _ in range(3):
        r = run_json([exe, "--mode", "engine", "--json", "-"], deadline)["results"]["engine"]
        engine.append(r["wall_ns"] / r["sim_events"])
        r = run_json([exe, "--mode", "io", "--json", "-"], deadline)["results"]["io"]
        io.append(r["wall_ns"] / r["items"])
    return {"engine_ns_per_event": median(engine), "io_ns_per_cmd": median(io)}


def load_references():
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def hostbench(out_dir, workload, seed, seconds, trace, deadline, rounds=0):
    cmd = [os.path.join(out_dir, "hostbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if rounds:
        cmd += ["--rounds", str(rounds)]
    raw = run_json(cmd, deadline)
    raw.setdefault("trace", None)
    return raw


def record_fingerprints(out_dir):
    """Rewrite fingerprints.json from one checked round per workload and seed."""
    refs = {}
    for workload in WORKLOADS:
        refs[workload] = {}
        for seed in RECORD_SEEDS:
            raw = hostbench(out_dir, workload, seed, 1, False, time.monotonic() + 120, rounds=1)
            problems = check(raw, None)
            if problems:
                raise RuntimeError("%s seed %d: %s" % (workload, seed, "; ".join(problems)))
            refs[workload][str(seed)] = raw["rounds"][0]["outcome"]
        log("%s: %d seeds recorded" % (workload, len(RECORD_SEEDS)))
    with open(REFERENCE_PATH, "w") as f:
        json.dump(refs, f, indent=1)
        f.write("\n")


def print_jobs(raw):
    summaries = [(job["label"], job) for job in raw["jobs"]] if len(raw["jobs"]) <= 4 else []
    summaries.append(("all jobs", {"read": raw["all_read"], "write": raw["all_write"]}))
    for label, s in summaries:
        for direction in ("read", "write"):
            d = s[direction]
            if not d["count"]:
                continue
            tail, value = tail_percentile(d)
            line = "  %-22s %-5s n=%-7d min %.2f us  p50 %.2f us" % (
                label, direction, d["count"], d["min_ns"] / 1000.0, d["pct_ns"]["50"] / 1000.0)
            if tail:
                line += "  p%s %.2f us" % (tail, value / 1000.0)
            print(line)


def run_workload(workload, seed, seconds, trace, out_dir):
    # A run must end within 180 s of wall time; a hung simulation is killed
    # well before that.
    deadline = time.monotonic() + seconds + 135
    raw = hostbench(out_dir, workload, seed, seconds, trace, deadline)
    reference = load_references().get(workload, {}).get(str(seed))
    problems = check(raw, reference)
    metrics = per_layer(raw, nvsh_perf(out_dir, deadline)) if trace else end_to_end(raw)

    rounds = raw["rounds"]
    attempted = sum(r["ios"] for r in rounds)
    failed = failed_ops(raw)
    print("== %s seed %d, %s: %d rounds (%d traced), fingerprint %s, outcome %s" % (
        workload, seed, "traced" if trace else "untraced", len(rounds),
        sum(r["traced"] for r in rounds), rounds[0]["fingerprint"], rounds[0]["outcome"]))
    print("  ops attempted %d, failed %d; outcome %s" % (
        attempted, failed, "not kept in fingerprints.json" if reference is None
        else "checked against fingerprints.json"))
    if workload == "paper-qd1":
        print("  paper_delta_err_us %.3f (simulated)" % paper_delta_err_us(raw["jobs"]))
    print_jobs(raw)
    if trace:
        for name, (n, ms) in span_totals(raw["host_spans"]).items():
            print("  host span %-14s n=%-6d %12.1f ms" % (name, n, ms))
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.4f %s" % (name, value, unit))
    for p in problems:
        print("  CHECK FAILED: %s" % p)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-fingerprints", action="store_true",
                    help="rewrite fingerprints.json for seeds 0-31 and 2024, then exit")
    args = ap.parse_args()
    if args.workload is None and not args.record_fingerprints:
        ap.error("--workload is required")

    out_dir = build_dir()
    try:
        build(out_dir)
        if args.record_fingerprints:
            record_fingerprints(out_dir)
            return 0
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace, out_dir)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                for trace in (0, 1):
                    r = run_workload(workload, args.seed, args.seconds, trace, out_dir)
                    result["correct"] &= r["correct"]
                    result["attempted"] += r["attempted"]
                    result["failed"] += r["failed"]
                    for name, m in r["metrics"].items():
                        result["metrics"][workload + "." + name] = m
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
