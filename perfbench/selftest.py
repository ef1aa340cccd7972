#!/usr/bin/env python3
"""Self-tests for the benchmark's own logic. Run from the checkout root:

    python3 perfbench/selftest.py

They cover the percentile refusal, the error-rate count of a refused
request against a live `cntpower serve`, the output checks' rejection of
perturbed results, and the traced run's rejection of a replay that no
longer follows the program. Exit status 0 when all pass.
"""

import copy
import os
import shutil
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

GOOD_BLIF = ".model t\n.inputs a b c\n.outputs y\n.names a b c y\n11- 1\n--1 1\n.end\n"
BAD_BLIF = ".model t\n.inputs a b\n.outputs y\n.names a b y\n1x 1\n"


def test_percentile_refused_below_ten_beyond():
    assert bench.percentile(list(range(199)), 0.95) is None
    assert bench.percentile(list(range(200)), 0.95) == 189
    assert bench.percentile(list(range(19)), 0.50) is None
    assert bench.percentile(list(range(20)), 0.50) == 9


def golden_rows(golden):
    """Twelve identical rows whose averages are exactly the goldens."""
    dyn_c, stat_c = 1e-4, 1e-6
    results = {}
    for fam in bench.TABLE1_FAMILIES:
        pd = 0.0 if fam == "cmos" else golden[f"{fam}.vs_cmos.pd"][0]
        ps = 0.0 if fam == "cmos" else golden[f"{fam}.vs_cmos.ps"][0]
        results[fam] = {"gates": int(golden[f"{fam}.gates"][0]),
                        "delay_s": golden[f"{fam}.delay_ps"][0] * 1e-12,
                        "dynamic_W": (1 - pd) * dyn_c, "static_W": (1 - ps) * stat_c,
                        "total_W": golden[f"{fam}.total_uW"][0] * 1e-6,
                        "edp_Js": golden[f"{fam}.edp_1e-24Js"][0] * 1e-24}
    return [{"circuit": f"c{i}", "results": copy.deepcopy(results)} for i in range(12)]


def test_table1_check_rejects_perturbed(root):
    golden = bench.load_golden(root)
    rows = golden_rows(golden)
    assert bench.check_rows(rows, bench.TABLE1_FAMILIES, golden) == []
    more_gates = copy.deepcopy(rows)
    more_gates[0]["results"]["cntfet-generalized"]["gates"] += 12
    assert any("cntfet-generalized.gates" in p
               for p in bench.check_rows(more_gates, bench.TABLE1_FAMILIES, golden))
    hotter = copy.deepcopy(rows)
    for row in hotter:
        row["results"]["cmos"]["total_W"] *= 1.2
    assert bench.check_rows(hotter, bench.TABLE1_FAMILIES, golden) != []
    negative = copy.deepcopy(rows)
    negative[3]["results"]["cmos"]["dynamic_W"] = -1.0
    assert bench.check_rows(negative, bench.TABLE1_FAMILIES, golden) != []


def test_campaign_check_rejects_quarantine(root):
    golden = bench.load_golden(root)
    entries, queue = [], []
    for row in golden_rows(golden):
        for fam in bench.FAMILIES:
            r = row["results"].get(fam, row["results"]["cmos"])
            gates = golden[f"{fam}.gates"][0]
            shard = f"{row['circuit']}/{fam}/1"
            entries.append({"experiment": shard, "status": "passed", "wall_time": 0.1, "attempts": 1,
                            "scalars": {"gates": gates, "delay_ps": golden[f"{fam}.delay_ps"][0],
                                        "dynamic_uW": r["dynamic_W"] * 1e6,
                                        "static_uW": r["static_W"] * 1e6,
                                        "total_uW": golden[f"{fam}.total_uW"][0],
                                        "edp_1e-24Js": golden[f"{fam}.edp_1e-24Js"][0]}})
            queue.append({"shard": shard, "state": "done"})
    manifest = {"entries": entries}
    assert bench.check_campaign(manifest, queue, 0, golden) == []
    poisoned = queue + [{"shard": queue[5]["shard"], "state": "quarantined"}]
    assert any("quarantined" in p for p in bench.check_campaign(manifest, poisoned, 30, golden))


def test_serve_check_rejects_perturbed():
    reqs = [{"name": "n", "family": "cmos"}, {"name": "n", "family": "cmos"}]
    ok = {"status": "ok", "result": {"gates": 5, "delay_s": 1e-10, "dynamic_W": 1e-6,
                                     "static_W": 1e-9, "total_W": 2e-6, "edp_Js": 1e-25}}
    assert bench.check_serve(reqs, [ok, copy.deepcopy(ok)]) == []
    moved = copy.deepcopy(ok)
    moved["result"]["gates"] = 6
    assert bench.check_serve(reqs, [ok, moved]) != []
    inf = copy.deepcopy(ok)
    inf["result"]["total_W"] = float("inf")
    assert bench.check_serve(reqs, [ok, inf]) != []


def test_stale_replay_is_flagged():
    """A replay that no longer takes the program's time, or whose top-level
    spans leave its wall uncovered, fails the traced run."""
    rep = {"layers": {"aigs.resyn2rs": [9.0, 9.0, 4]}, "resyn_keys": ["a", "b"],
           "nodes_out": 10, "cells": 5, "cube_words": 0.0, "domains": 1,
           "wall_s": 10.0, "top_level_s": 9.9, "recorder_s": 0.5}
    problems, _, layers = bench.traced(rep, 10.0, 9.5, "batch")
    assert problems == [] and layers["tracing_overhead_s"] == 0.5, problems
    assert layers["aigs.resyn2rs_distinct_ratio"] == 0.5
    # The program got 3x faster and the replay did not follow.
    problems, _, _ = bench.traced(rep, 10.0, 9.5 / 3, "batch")
    assert any("no longer follows" in p for p in problems), problems
    uncovered = dict(rep, top_level_s=5.0)
    assert any("cover" in p for p in bench.traced(uncovered, 10.0, 9.5, "batch")[0])


def test_refused_request_counts_as_failed(root):
    """A malformed-BLIF request is refused at admission by a live daemon,
    and counts in the error rate."""
    bench.build(root)
    workdir = os.path.join(root, ".perfbench", f"selftest-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run = bench.Run(root, workdir, seed=0, trace=0)
    progs = bench.Programs(dict(os.environ, CNTPOWER_DOMAINS="1"))
    d = run.fresh("serve")
    proc = None
    try:
        with open(run.log, "ab") as log:
            proc, sock = bench.start_daemon(run, progs, d, log)
            bench.wait_healthy(sock, proc)
            payloads = [{"verb": "estimate", "blif": blif, "library": "cmos",
                         "patterns": 256, "seed": 1, "domains": 1}
                        for blif in (GOOD_BLIF, BAD_BLIF)]
            results = bench.closed_loop(sock, payloads)
    finally:
        if proc is not None:
            progs.stop(proc)
        shutil.rmtree(workdir, ignore_errors=True)
    latencies, failed = bench.tally(results)
    assert results[0][2]["status"] == "ok", results[0][2]
    assert results[1][2]["status"] == "error", results[1][2]
    assert (len(latencies), failed) == (1, 1)
    reqs = [{"name": "good", "family": "cmos"}, {"name": "bad", "family": "cmos"}]
    assert bench.check_serve(reqs, [r[2] for r in results]) != []


def main():
    root = os.getcwd()
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn(root) if fn.__code__.co_argcount else fn()
            print(f"ok   {name}")
        except Exception as e:  # report every test, not just the first failure
            failures += 1
            print(f"FAIL {name}: {type(e).__name__}: {e}")
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
