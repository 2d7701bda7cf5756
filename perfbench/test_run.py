#!/usr/bin/env python3
"""Tests of the benchmark's own logic: metric derivations, the correctness
checks, and agreement between the printed metric names and BENCHMARK.json.

    python3 perfbench/test_run.py
"""

import json
import os
import re
import unittest

import run

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def percentiles(count, min_ns, p50=0.0):
    return {"count": count, "min_ns": min_ns,
            "pct_ns": {"50": p50, "90": 0.0, "99": 0.0, "99.9": 0.0, "99.99": 0.0}}


def job(label, ops=100, read=None, write=None, errors=0, verify=0, offset=0, blocks=0):
    return {"label": label, "planned_ops": ops, "ops": ops, "errors": errors,
            "verify_failures": verify, "elapsed_ns": 1, "region_offset": offset,
            "region_blocks": blocks, "read": read or percentiles(0, 0),
            "write": write or percentiles(0, 0)}


def qd1_jobs(local_read, remote_read, local_write, remote_write):
    return [job("ours-local/randread", read=percentiles(10, local_read)),
            job("ours-local/randwrite", write=percentiles(10, local_write)),
            job("ours-remote/randread", read=percentiles(10, remote_read)),
            job("ours-remote/randwrite", write=percentiles(10, remote_write))]


def rnd(traced=False, warmup=False, run_ns=2_000_000, ios=1000, events=40_000,
        setup_ns=5_000_000, fingerprint="ab", outcome="cd", failed=0,
        ref_ns=run.REF_NOMINAL_NS):
    return {"warmup": warmup, "traced": traced, "setup_ns": setup_ns, "run_ns": run_ns,
            "ios": ios, "failed": failed, "events": events,
            "setup_ref_ns": ref_ns, "run_ref_ns": ref_ns,
            "fingerprint": fingerprint, "outcome": outcome}


def raw_doc(workload="deep-mixed", rounds=None, counters=None, jobs=None, trace=True):
    doc = {
        "workload": workload, "seed": 1,
        "rounds": rounds or [rnd(warmup=True, run_ns=9_000_000), rnd(), rnd(traced=True)],
        "jobs": jobs or [job("ours-remote/randrw70")],
        "all_read": percentiles(0, 0), "all_write": percentiles(0, 0),
        "channels": 4, "aborted_cmds": 0, "resident_pages": 7,
        "store_resident_chunks": 3, "namespace_blocks": 0,
        "registry": {"counters": counters or {}, "gauges": {}, "histograms": {}},
        "calls": {"manager_start": [1_000, 3_000, 2_000], "client_attach": [4_000]},
        "peak_rss_kb": 2048, "trace": None,
    }
    if trace:
        probe = {"poll_read_ns": 1.0, "post_write_64b_ns": 2.0, "write_sg_64k_ns": 3.0}
        doc["trace"] = {"dropped": 0, "device_mismatched": 0, "requests": 10, "spans": 110,
                        "self_ns": {"submit": 100, "cq_wait": 50}}
        doc["probes"] = {"pcie": probe, "cxl": probe,
                         "mem": {"read_4k_ns": 1.0, "write_4k_ns": 1.0,
                                 "first_touch_4k_ns": 1.0},
                         "nvme": {"queue_push_reap_ns": 1.0}}
    return doc


PERF = {"engine_ns_per_event": 20.0, "io_ns_per_cmd": 500.0}


class Derivations(unittest.TestCase):
    def test_paper_delta_err_uses_the_paper_constants(self):
        self.assertEqual(run.PAPER_DELTA_US, {"read": 1.0, "write": 2.0})
        # Read delta 1.1 us (err 0.1), write delta 1.7 us (err 0.3).
        jobs = qd1_jobs(13_000, 14_100, 14_000, 15_700)
        self.assertAlmostEqual(run.paper_delta_err_us(jobs), 0.3)
        # Exact reproduction gives zero error.
        self.assertAlmostEqual(run.paper_delta_err_us(qd1_jobs(13_000, 14_000, 14_000, 16_000)),
                               0.0)
        self.assertIsNone(run.paper_delta_err_us([job("ours-remote/randrw70")]))

    def test_end_to_end_skips_warmup_and_traced_rounds(self):
        rounds = [rnd(warmup=True, run_ns=99_000_000, setup_ns=99),
                  rnd(run_ns=2_000_000, setup_ns=4_000_000_000),
                  rnd(traced=True, run_ns=50_000_000),
                  rnd(run_ns=4_000_000, setup_ns=2_000_000_000),
                  rnd(run_ns=3_000_000, setup_ns=3_000_000_000)]
        m = run.end_to_end(raw_doc(rounds=rounds))
        self.assertEqual(m["host_us_per_io"], (3.0, "us"))  # median of 2, 4, 3 us per IO
        self.assertEqual(m["setup_s"], (3.0, "s"))
        self.assertEqual(m["peak_rss_mb"], (2.0, "MB"))

    def test_times_are_scaled_to_nominal_machine_speed(self):
        # The middle round ran on a machine at half speed: its reference
        # passes took twice the nominal time, and so did the round.
        slow = 2 * run.REF_NOMINAL_NS
        rounds = [rnd(warmup=True),
                  rnd(run_ns=2_000_000, setup_ns=1_000_000_000),
                  rnd(run_ns=6_000_000, setup_ns=2_000_000_000, ref_ns=slow),
                  rnd(run_ns=4_000_000, setup_ns=3_000_000_000)]
        m = run.end_to_end(raw_doc(rounds=rounds))
        self.assertEqual(m["host_us_per_io"], (3.0, "us"))  # median of 2, 3, 4
        self.assertEqual(m["setup_s"], (1.0, "s"))  # median of 1, 1, 3
        layers = run.per_layer(raw_doc(rounds=rounds), PERF)
        self.assertEqual(layers["machine.raw_host_us_per_io"][0], 4.0)  # median of 2, 6, 4
        self.assertEqual(layers["machine.ref_pass_ms"][0], run.REF_NOMINAL_NS / 1e6)

    def test_per_io_ratios_and_poll_ratio(self):
        counters = {"nvmeshare.client.poll_rounds": 8000,
                    "nvmeshare.queue.reap_batches": 1600,
                    "nvmeshare.queue.cqes_consumed": 2000,
                    "nvmeshare.client.bounce_copy_bytes": 4096 * 1000,
                    "nvmeshare.fabric.posted_writes": 5000,
                    "nvmeshare.fabric.bytes_written": 3000, "nvmeshare.fabric.bytes_read": 1000,
                    "nvmeshare.engine.client.qp0.coalesced_cmds": 600,
                    "nvmeshare.engine.client.qp1.coalesced_cmds": 600,
                    "nvmeshare.engine.client.qp0.doorbell_writes": 300,
                    "nvmeshare.engine.client.qp1.doorbell_writes": 300,
                    "nvmeshare.mux.shard_requests": 100, "nvmeshare.mux.shard_sub_requests": 150,
                    "nvmeshare.mux.shard_splits": 50}
        m = run.per_layer(raw_doc(counters=counters), PERF)
        self.assertEqual(m["sim.events_per_io"][0], 40.0)
        self.assertEqual(m["sim.host_ns_per_event"][0], 50.0)  # 2 ms / 40k events
        self.assertEqual(m["driver.poll_rounds_per_io"][0], 8.0)
        # reap_batches / (poll_rounds x channels) = 1600 / (8000 x 4)
        self.assertEqual(m["driver.useful_poll_ratio"][0], 0.05)
        self.assertEqual(m["driver.bounce_copy_bytes_per_io"][0], 4096.0)
        self.assertEqual(m["driver.manager_start_s"][0], 2e-6)
        self.assertEqual(m["nvme.cqes_per_reap"][0], 1.25)
        self.assertEqual(m["block.cmds_per_doorbell"][0], 2.0)
        self.assertEqual(m["block.shard_sub_requests_per_request"][0], 1.5)
        self.assertEqual(m["block.shard_splits_per_request"][0], 0.5)
        self.assertEqual(m["fabric.posted_writes_per_io"][0], 5.0)
        self.assertEqual(m["fabric.bytes_per_io"][0], 4.0)
        self.assertEqual(m["phase.submit_ns"][0], 10.0)
        self.assertEqual(m["phase.cq_wait_ns"][0], 5.0)
        self.assertEqual(m["phase.media_ns"][0], 0.0)
        # Absent layers read 0 instead of failing.
        self.assertEqual(m["mux.drr_rounds_per_cmd"][0], 0.0)
        self.assertEqual(m["mux.create_share_s"][0], 0.0)

    def test_trace_overhead(self):
        rounds = [rnd(warmup=True), rnd(run_ns=2_000_000), rnd(run_ns=3_000_000),
                  rnd(traced=True, run_ns=2_200_000), rnd(traced=True, run_ns=3_300_000)]
        m = run.per_layer(raw_doc(rounds=rounds), PERF)
        self.assertAlmostEqual(m["obs.trace_overhead_pct"][0], 10.0)

    def test_span_totals(self):
        spans = [["setup", -1, 0, 2_000_000], ["client_attach", 0, 0, 500_000],
                 ["client_attach", 0, 500_000, 1_500_000]]
        self.assertEqual(run.span_totals(spans),
                         {"setup": (1, 2.0), "client_attach": (2, 1.5)})

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(percentiles(20_000, 1))[0], "99.9")
        self.assertEqual(run.tail_percentile(percentiles(1_000, 1))[0], "99")
        self.assertEqual(run.tail_percentile(percentiles(100, 1))[0], "90")
        self.assertEqual(run.tail_percentile(percentiles(9, 1))[0], None)


class Checks(unittest.TestCase):
    def test_clean_run_passes(self):
        self.assertEqual(run.check(raw_doc(), None), [])

    def test_io_error_verify_failure_and_abort_fail(self):
        doc = raw_doc(jobs=[job("a", errors=1), job("b", verify=2)])
        doc["aborted_cmds"] = 3
        problems = run.check(doc, None)
        self.assertEqual(len(problems), 3)

    def test_failed_ops_counts_every_round(self):
        doc = raw_doc(rounds=[rnd(warmup=True), rnd(failed=2), rnd(traced=True, failed=1)])
        self.assertEqual(run.failed_ops(doc), 3)

    def test_fingerprints_must_agree(self):
        doc = raw_doc(rounds=[rnd(warmup=True), rnd(fingerprint="ef")])
        self.assertTrue(run.check(doc, None))

    def test_outcome_must_match_the_reference(self):
        self.assertTrue(run.check(raw_doc(), "ff"))
        self.assertEqual(run.check(raw_doc(), "cd"), [])

    def test_dropped_or_misattributed_spans_fail(self):
        doc = raw_doc()
        doc["trace"]["dropped"] = 1
        self.assertTrue(run.check(doc, None))
        doc = raw_doc()
        doc["trace"]["device_mismatched"] = 1
        self.assertTrue(run.check(doc, None))

    def test_tenant_regions(self):
        self.assertIsNone(run.regions_overlap([(0, 10), (10, 10), (30, 5)]))
        self.assertEqual(run.regions_overlap([(20, 10), (0, 10), (9, 5)]), ((0, 10), (9, 5)))
        disjoint = [job("t%d" % i, offset=i * 64, blocks=64) for i in range(4)]
        doc = raw_doc(workload="tenants-64k", jobs=disjoint)
        doc["namespace_blocks"] = 256
        self.assertEqual(run.check(doc, None), [])
        doc["namespace_blocks"] = 200
        self.assertTrue(run.check(doc, None))
        doc = raw_doc(workload="tenants-64k", jobs=disjoint + [job("x", offset=32, blocks=64)])
        doc["namespace_blocks"] = 256
        self.assertTrue(run.check(doc, None))


class References(unittest.TestCase):
    def test_every_workload_and_recorded_seed_has_a_digest(self):
        refs = run.load_references()
        self.assertEqual(set(refs), set(run.WORKLOADS))
        for workload, digests in refs.items():
            self.assertEqual(set(digests), {str(s) for s in run.RECORD_SEEDS}, workload)
            for digest in digests.values():
                self.assertRegex(digest, r"^[0-9a-f]{16}$")


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_printed_names_match_benchmark_json(self):
        e2e = run.end_to_end(raw_doc(trace=False))
        layers = run.per_layer(raw_doc(), PERF)
        self.assertEqual(set(e2e), {m["name"] for m in self.spec["end_to_end"]})
        self.assertEqual(set(layers), {m["name"] for m in self.spec["per_layer"]})
        for section, printed in (("end_to_end", e2e), ("per_layer", layers)):
            for m in self.spec[section]:
                self.assertEqual(printed[m["name"]][1], m["unit"], m["name"])

    def test_names_and_units_are_valid(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), run.WORKLOADS)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
