#!/usr/bin/env python3
"""End-to-end benchmark of cntpower.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each exists):

  table1-128k   Experiments.Exp_table1.run over the 12 suite circuits x the
                paper's 3 families at 131 072 patterns, verification on,
                CNTPOWER_DOMAINS=1.
  campaign-65k  `cntpower campaign --workers 2 --domains 1` at 65 536
                patterns over the 12 circuits x 4 families (the 3 built-ins
                plus data/libraries/ptl-ambipolar.genlibp): 48 shards.
  serve-small   a closed loop of 2 connections against
                `cntpower serve --workers 2`: 200 estimate requests of
                small BLIF netlists x 4 families at 4 096 patterns.

With --trace 0 the run measures the user's path untraced and reports the
end-to-end metrics; with --trace 1 it reports per-layer metrics from an
in-process replay of the same calls under the benchmark's own span
recorder, and checks that the replay still takes the time the program's
own path takes. Every program process of a run starts in a fresh
directory under .perfbench/ with an empty _cache/ and _runs/. A run
checks the program's outputs and prints one JSON object as its last line.
It exits 1 when an output check fails and 2 when the checkout or the
build is unusable (then without a result).
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

WORKLOADS = ("table1-128k", "campaign-65k", "serve-small")
TABLE1_PATTERNS = 131_072
TABLE1_FAMILIES = ("cntfet-generalized", "cntfet-conventional", "cmos")
CAMPAIGN_PATTERNS = 65_536
SERVE_PATTERNS = 4_096
FAMILIES = TABLE1_FAMILIES + ("ptl-ambipolar",)
PTL_FILE = os.path.join("data", "libraries", "ptl-ambipolar.genlibp")
GOLDEN_FILE = os.path.join("golden", "libfiles.json")
# setup_s is the median of this many fresh set-ups before the measured
# phase and this many after it.
SETUP_BEFORE = 2
SETUP_AFTER = 2
# serve-small sends every (netlist, family) pair this many times.
SERVE_REPEATS = 5
SERVE_CONNECTIONS = 2
# Each workload runs at most this many workers at once.
WORKERS = 2
# Every program process runs on one domain. OCaml 5's minor collections
# stop every domain, so on two domains Table 1's collections, and its
# waits for a core the host holds, depend on timing: on a loaded shared
# host its wall spread past the bound, and its peak RSS ranged from 378
# to 599 MB between identical runs.
DOMAINS = 1
PROC_TIMEOUT_S = 170.0
# A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10
# The traced replay's top-level layer spans must cover this share of it.
MIN_COVERAGE = 0.95
# The replay's operations, less the recorder's own time, may take this
# share more or less time than the program's untraced ones (the wall_s
# bound).
MAX_REPLAY_GAP = 0.24

REQUIRED = ("dune-project", os.path.join("bin", "cntpower.ml"),
            os.path.join("lib", "experiments", "exp_table1.ml"),
            PTL_FILE, GOLDEN_FILE)

# Operations per run: Table 1 mappings, shards, measured requests.
OPERATIONS = {"table1-128k": 36, "campaign-65k": 48, "serve-small": 200}

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
CNTPOWER = os.path.join("_build", "default", "bin", "cntpower.exe")


class Unusable(Exception):
    """The checkout cannot be benchmarked: no result is printed."""


# --------------------------------------------------------------------------
# Statistics


def percentile(samples, q):
    """Nearest-rank percentile, refused (None) when fewer than MIN_BEYOND
    samples lie beyond it."""
    rank = max(1, math.ceil(q * len(samples)))
    if len(samples) - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


# --------------------------------------------------------------------------
# Processes


class Programs:
    """Starts the program's processes, waits for each, and keeps the
    largest resident set any of them (or their reaped children) reached."""

    def __init__(self, env):
        self.env = env
        self.peak_rss_kb = 0

    def start(self, argv, cwd, log):
        # A session of its own, so a timeout can kill the workers too.
        return subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT, start_new_session=True)

    def wait(self, proc, timeout=PROC_TIMEOUT_S):
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def run(self, argv, cwd, log_path):
        """Run to completion; returns (exit code, wall seconds)."""
        with open(log_path, "ab") as log:
            t0 = time.perf_counter()
            code = self.wait(self.start(argv, cwd, log))
            return code, time.perf_counter() - t0

    def stop(self, proc):
        if proc.returncode is None:
            proc.send_signal(signal.SIGTERM)
            try:
                return self.wait(proc, timeout=60.0)
            except ChildProcessError:
                return proc.returncode
        return proc.returncode


def tail(path, lines=20):
    try:
        with open(path, errors="replace") as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


# --------------------------------------------------------------------------
# Output checks. Each returns a list of problems; empty means correct.


def load_golden(root):
    with open(os.path.join(root, GOLDEN_FILE)) as f:
        return {m["metric"]: (m["value"], m["rtol"])
                for m in json.load(f)["metrics"] if m["experiment"] == "table1"}


def drifted(actual, expected, rtol):
    return abs(actual - expected) > rtol * max(abs(expected), 1e-300)


def positive(x):
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


def report_problems(where, r):
    bad = [k for k in ("delay_s", "dynamic_W", "total_W", "edp_Js") if not positive(r.get(k))]
    if not (isinstance(r.get("static_W"), (int, float)) and math.isfinite(r["static_W"])
            and r["static_W"] >= 0):
        bad.append("static_W")
    if not (isinstance(r.get("gates"), int) and r["gates"] > 0):
        bad.append("gates")
    return [f"{where}: bad {k}={r.get(k)!r}" for k in bad]


def family_scalars(rows, families):
    """Exp_table1's averages and improvement-vs-CMOS figures, recomputed
    from per-row reports, under the golden metric names."""
    out = {}
    avg = {}
    for fam in families:
        reps = [row["results"][fam] for row in rows]
        mean = {k: sum(r[k] for r in reps) / len(reps)
                for k in ("gates", "delay_s", "dynamic_W", "static_W", "total_W", "edp_Js")}
        mean["gates"] = int(mean["gates"] + 0.5)
        avg[fam] = mean
        out[f"{fam}.gates"] = float(mean["gates"])
        out[f"{fam}.delay_ps"] = mean["delay_s"] * 1e12
        out[f"{fam}.total_uW"] = mean["total_W"] * 1e6
        out[f"{fam}.edp_1e-24Js"] = mean["edp_Js"] * 1e24
    c = avg["cmos"]
    for fam in families:
        if fam == "cmos":
            continue
        a = avg[fam]
        out[f"{fam}.vs_cmos.gates"] = 1.0 - a["gates"] / c["gates"]
        out[f"{fam}.vs_cmos.delay"] = c["delay_s"] / a["delay_s"]
        out[f"{fam}.vs_cmos.pd"] = 1.0 - a["dynamic_W"] / c["dynamic_W"]
        out[f"{fam}.vs_cmos.ps"] = 1.0 - a["static_W"] / c["static_W"]
        out[f"{fam}.vs_cmos.pt"] = 1.0 - a["total_W"] / c["total_W"]
        out[f"{fam}.vs_cmos.edp"] = c["edp_Js"] / a["edp_Js"]
    return out


def check_rows(rows, families, golden, names=None):
    """Per-circuit reports for every family, whose averages match the
    goldens. `names` restricts the compared golden metrics."""
    problems = []
    if len(rows) != 12:
        problems.append(f"expected 12 circuits, got {len(rows)}")
        return problems
    for row in rows:
        for fam in families:
            r = row["results"].get(fam)
            if r is None:
                problems.append(f"{row['circuit']}: no result for {fam}")
            else:
                problems += report_problems(f"{row['circuit']}/{fam}", r)
    if problems:
        return problems
    for name, actual in family_scalars(rows, families).items():
        if names is not None and not any(name.endswith(n) for n in names):
            continue
        if name not in golden:
            problems.append(f"no golden for {name}")
            continue
        expected, rtol = golden[name]
        if drifted(actual, expected, rtol):
            problems.append(f"{name} = {actual:.6g}, golden {expected:.6g} (rtol {rtol})")
    return problems


def check_table1(result, golden):
    problems = check_rows(result["rows"], TABLE1_FAMILIES, golden)
    # The recomputed averages must agree with Exp_table1.scalars itself.
    ours = family_scalars(result["rows"], TABLE1_FAMILIES)
    for name, value in result.get("scalars", {}).items():
        if name in ours and drifted(ours[name], value, 1e-9):
            problems.append(f"{name}: Exp_table1 says {value}, rows give {ours[name]}")
    return problems


def campaign_rows(manifest):
    """Manifest entries as Table-1-shaped rows (circuit-major)."""
    rows = {}
    for e in manifest["entries"]:
        circuit, family, _seed = e["experiment"].split("/")
        s = e["scalars"]
        rows.setdefault(circuit, {"circuit": circuit, "results": {}})["results"][family] = {
            "gates": int(s["gates"]), "delay_s": s["delay_ps"] * 1e-12,
            "dynamic_W": s["dynamic_uW"] * 1e-6, "static_W": s["static_uW"] * 1e-6,
            "total_W": s["total_uW"] * 1e-6, "edp_Js": s["edp_1e-24Js"] * 1e-24}
    return list(rows.values())


def check_campaign(manifest, queue, code, golden):
    problems = []
    if code != 0:
        problems.append(f"cntpower campaign exited {code}")
    states = {rec["shard"]: rec["state"] for rec in queue}  # last record wins
    quarantined = [s for s, st in states.items() if st == "quarantined"]
    not_done = [s for s, st in states.items() if st != "done"]
    if quarantined:
        problems.append(f"quarantined: {quarantined}")
    if not_done:
        problems.append(f"{len(not_done)} shard(s) not done: {not_done[:5]}")
    if len(states) != 48:
        problems.append(f"expected 48 shards in the queue log, got {len(states)}")
    failed = [e["experiment"] for e in manifest["entries"] if e["status"] != "passed"]
    if failed:
        problems.append(f"manifest entries not passed: {failed[:5]}")
    if len(manifest["entries"]) != 48:
        problems.append(f"expected 48 manifest entries, got {len(manifest['entries'])}")
        return problems
    return problems + check_rows(campaign_rows(manifest), FAMILIES, golden,
                                 names=(".gates", ".delay_ps", ".total_uW", ".edp_1e-24Js"))


def check_serve(requests, replies):
    """Every reply ok with sane powers; a repeated (netlist, family) pair
    returns the same gates and delay."""
    problems = []
    seen = {}
    for req, reply in zip(requests, replies):
        where = f"{req['name']}/{req['family']}"
        if reply.get("status") != "ok":
            problems.append(f"{where}: {reply.get('status')} {reply.get('error')}")
            continue
        r = reply.get("result", {})
        if isinstance(r.get("gates"), float) and r["gates"].is_integer():
            r["gates"] = int(r["gates"])
        problems += report_problems(where, r)
        key = (req["name"], req["family"])
        shape = (r.get("gates"), r.get("delay_s"))
        if seen.setdefault(key, shape) != shape:
            problems.append(f"{where}: {shape} differs from an earlier {seen[key]}")
    return problems


# --------------------------------------------------------------------------
# The serve protocol: 4-byte big-endian length, then JSON.


def send_frame(sock, obj):
    data = json.dumps(obj).encode()
    sock.sendall(struct.pack(">I", len(data)) + data)


def recv_exact(sock, n):
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        buf += chunk
    return bytes(buf)


def recv_frame(sock):
    (n,) = struct.unpack(">I", recv_exact(sock, 4))
    return json.loads(recv_exact(sock, n))


def connect(path, timeout=120.0):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout)
    s.connect(path)
    return s


def call(path, obj, timeout=30.0):
    with connect(path, timeout) as s:
        send_frame(s, obj)
        return recv_frame(s)


def closed_loop(path, payloads, connections=SERVE_CONNECTIONS):
    """Send every payload, each connection waiting for its reply before
    sending the next. Returns [(sent, replied, reply)] in payload order;
    a transport failure becomes a reply with status "transport"."""
    results = [None] * len(payloads)
    lock = threading.Lock()
    cursor = [0]

    def client():
        sock = None
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(payloads):
                break
            t0 = time.perf_counter()
            try:
                if sock is None:
                    sock = connect(path)
                send_frame(sock, payloads[i])
                reply = recv_frame(sock)
            except (OSError, ValueError) as e:
                reply = {"status": "transport", "error": str(e)}
                if sock is not None:
                    sock.close()
                sock = None
            results[i] = (t0, time.perf_counter(), reply)
        if sock is not None:
            sock.close()

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def tally(results):
    """Latencies (ms) of the ok replies, and the count of the others:
    errors, refusals, sheds and transport failures."""
    latencies = [(t1 - t0) * 1e3 for t0, t1, rep in results if rep.get("status") == "ok"]
    return latencies, len(results) - len(latencies)


def wait_healthy(path, proc, timeout=30.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited {proc.returncode} before it was healthy")
        try:
            if call(path, {"verb": "health"}, timeout=5.0).get("status") == "ok":
                return
        except (OSError, ValueError):
            pass
        time.sleep(0.02)
    raise RuntimeError("daemon not healthy after 30 s")


# --------------------------------------------------------------------------
# Workloads. Each returns a dict with attempted, failed, problems, the
# end-to-end figures (trace 0) or the per-layer ones (trace 1), and
# human-readable lines.


class Run:
    def __init__(self, root, workdir, seed, trace):
        self.root = root
        self.dir = workdir
        self.seed = seed
        self.trace = trace
        self.exe = os.path.join(root, EXE)
        self.cntpower = os.path.join(root, CNTPOWER)
        self.ptl = os.path.join(root, PTL_FILE)
        self.log = os.path.join(workdir, "programs.log")
        self.golden = load_golden(root)
        self.fresh_dirs = 0
        self.trace_file = None

    def fresh(self, name):
        """A new empty working directory: no _cache/, no _runs/."""
        self.fresh_dirs += 1
        d = os.path.join(self.dir, f"{self.fresh_dirs:02d}-{name}")
        os.makedirs(d)
        return d

    def must(self, progs, argv, cwd):
        code, wall = progs.run(argv, cwd, self.log)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv[:2])} exited {code}:\n{tail(self.log)}")
        return wall

    def setups(self, progs, libfiles, repeats):
        """Time `repeats` set-ups, each a fresh process in a fresh directory."""
        argv = [self.exe, "setup"] + sum((["--libfile", f] for f in libfiles), [])
        return [self.must(progs, argv, self.fresh("setup")) for _ in range(repeats)]

    def replay(self, progs, workload, patterns, libfiles=(), requests=None, beside=None):
        """The traced replay, in a fresh directory. `beside`, when given, runs
        the program's own path at the same time, so that both see the same
        host. Returns (the replay's output, what `beside` returned)."""
        d = self.fresh("replay")
        out = os.path.join(d, "replay.json")
        argv = [self.exe, "replay", "--workload", workload, "--seed", str(self.seed),
                "--patterns", str(patterns), "--out", out,
                "--trace", os.path.join(d, "trace.json")]
        argv += sum((["--libfile", f] for f in libfiles), [])
        if requests:
            argv += ["--requests", requests]
        with open(self.log, "ab") as log:
            proc = progs.start(argv, d, log)
        try:
            other = beside() if beside else None
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            progs.wait(proc)
            raise
        if progs.wait(proc) != 0:
            raise RuntimeError(f"replay exited {proc.returncode}:\n{tail(self.log)}")
        with open(out) as f:
            rep = json.load(f)
        self.trace_file = os.path.join(d, "trace.json")
        return rep, other


# Per-layer metrics that are a span's total time, by span name.
SPAN_TOTALS = ("circuits.generate", "nets.blif_parse", "nets.check", "aigs.of_netlist",
               "aigs.resyn2rs", "techmap.matchlib_build", "techmap.map", "techmap.verify",
               "techmap.estimate", "nets.stimulus", "techmap.simulate", "logic.toggle_prob")

RUNTIME_LAYERS = ("runtime.server_overhead_ms", "runtime.server_shed",
                  "experiments.campaign_shard_s", "experiments.campaign_idle_s",
                  "experiments.campaign_retries", "runtime.workqueue_records")


def layer_metrics(rep):
    """The per-layer metrics of a replay's raw sums."""
    def layer(name, i):  # i: 0 total, 1 self, 2 calls
        return float(rep["layers"].get(name, [0.0, 0.0, 0])[i])

    m = {f"{name}_s": layer(name, 0) for name in SPAN_TOTALS}
    m["techmap.estimate_other_s"] = layer("techmap.estimate", 1)
    m["techmap.characterize_s"] = layer("techmap.characterize", 1)
    calls = layer("aigs.resyn2rs", 2)
    m["aigs.resyn2rs_calls"] = calls
    m["aigs.resyn2rs_distinct_ratio"] = len(rep["resyn_keys"]) / calls if calls else 0.0
    m["aigs.nodes_out"] = float(rep["nodes_out"])
    m["techmap.matchlib_calls"] = layer("techmap.matchlib_build", 2)
    m["techmap.cells"] = float(rep["cells"])
    m["techmap.cube_words"] = float(rep["cube_words"])
    m["techmap.simulate_ns_per_cube_word"] = (m["techmap.simulate_s"] * 1e9 / rep["cube_words"]
                                              if rep["cube_words"] else 0.0)
    m["runtime.dpool_domains"] = float(rep["domains"])
    m["trace.recorder_s"] = rep["recorder_s"]
    m["trace.wall_s"] = rep["wall_s"]
    m["trace.coverage"] = rep["top_level_s"] / rep["wall_s"]
    return m


def traced(rep, traced_s, untraced_s, what, **runtime):
    """A traced run's per-layer metrics (0 for the runtime layers the
    workload does not reach) and the replay's checks: its top-level spans
    cover its wall, and its time for the operations (`traced_s`), less the
    recorder's own time, is about the program's untraced time for them.
    Returns (problems, lines, metrics)."""
    layers = dict(layer_metrics(rep), **{k: 0.0 for k in RUNTIME_LAYERS})
    layers.update(runtime)
    layers["tracing_overhead_s"] = traced_s - untraced_s
    problems = []
    if layers["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"top-level layer spans cover {layers['trace.coverage']:.3f} "
                        "of the traced wall")
    gap = (traced_s - rep["recorder_s"]) / untraced_s - 1.0
    if abs(gap) > MAX_REPLAY_GAP:
        problems.append(f"the replayed {what} take {gap:+.1%} against the program's own; "
                        "the replay no longer follows the program")
    lines = [f"replay of the {what}: untraced {untraced_s:.4f} s, traced {traced_s:.4f} s "
             f"(recorder {rep['recorder_s']:.4f} s), gap {gap:+.4f}"]
    return problems, lines, layers


def run_table1(run, progs):
    d = run.fresh("table1")
    out = os.path.join(d, "table1.json")
    run.must(progs, [run.exe, "table1", "--seed", str(run.seed),
                     "--patterns", str(TABLE1_PATTERNS), "--out", out], d)
    with open(out) as f:
        return json.load(f)


def table1(run, progs):
    if not run.trace:
        setup = run.setups(progs, [], SETUP_BEFORE)
        result = run_table1(run, progs)
        setup += run.setups(progs, [], SETUP_AFTER)
        return {"attempted": 36, "failed": 0, "problems": check_table1(result, run.golden),
                "setup": setup, "wall_s": result["wall_s"], "lines": []}
    # The replay runs Exp_table1.run on each circuit next to its replay.
    rep, _ = run.replay(progs, "table1", TABLE1_PATTERNS)
    out = {"attempted": 36, "failed": 0, "lines": [],
           "problems": check_rows(rep["items"], TABLE1_FAMILIES, run.golden)}
    # Same seed and patterns: the replay must report exactly what
    # Exp_table1.run reported.
    if rep["items"] != rep["twin_items"]:
        out["problems"].append("the replay's Table 1 rows differ from Exp_table1.run's")
    pairs = [(o, t) for o, t in zip(rep["op_s"], rep["twin_s"]) if t is not None]
    problems, lines, out["layers"] = traced(
        rep, sum(o for o, _ in pairs), sum(t for _, t in pairs), "circuits")
    out["problems"] += problems
    out["lines"] += lines
    return out


def read_campaign(d):
    base = os.path.join(d, "_runs", "bench")
    with open(os.path.join(base, "manifest.json")) as f:
        manifest = json.load(f)
    with open(os.path.join(base, "queue.jsonl")) as f:
        lines = [ln for ln in f if ln.strip()]
    return manifest, [json.loads(ln) for ln in lines]


def run_campaign(run, progs, workers):
    d = run.fresh("campaign")
    argv = [run.cntpower, "campaign", "--workers", str(workers), "--domains", str(DOMAINS),
            "--patterns", str(CAMPAIGN_PATTERNS), "--library-file", run.ptl,
            "--run", "bench", "--seed", str(run.seed), "--log-level", "quiet"]
    code, wall = progs.run(argv, d, run.log)
    return (code, wall) + read_campaign(d)


def campaign(run, progs):
    if run.trace:
        # One worker beside the replay: the two share the host as the
        # measured run's two workers do.
        rep, (code, wall, manifest, queue) = run.replay(
            progs, "campaign", CAMPAIGN_PATTERNS, libfiles=[run.ptl],
            beside=lambda: run_campaign(run, progs, 1))
    else:
        setup = run.setups(progs, [run.ptl], SETUP_BEFORE)
        code, wall, manifest, queue = run_campaign(run, progs, WORKERS)
        setup += run.setups(progs, [run.ptl], SETUP_AFTER)
    entries = manifest["entries"]
    out = {"attempted": 48, "problems": check_campaign(manifest, queue, code, run.golden),
           "failed": max(0, 48 - sum(1 for e in entries if e["status"] == "passed")),
           "lines": []}
    if not run.trace:
        return dict(out, setup=setup, wall_s=wall)
    rows = {}
    for s in rep["items"]:
        rows.setdefault(s["circuit"], {"circuit": s["circuit"], "results": {}})["results"][
            s["family"]] = s["report"]
    out["problems"] += check_rows(list(rows.values()), FAMILIES, run.golden,
                                  names=(".gates", ".delay_ps", ".total_uW", ".edp_1e-24Js"))
    # The replay maps exactly what the workers mapped.
    shard_gates = {(r["circuit"], fam): res["gates"]
                   for r in campaign_rows(manifest) for fam, res in r["results"].items()}
    for s in rep["items"]:
        if shard_gates.get((s["circuit"], s["family"])) != s["report"]["gates"]:
            out["problems"].append(f"replay of {s['circuit']}/{s['family']} maps "
                                   f"{s['report']['gates']} gates, the shard "
                                   f"{shard_gates.get((s['circuit'], s['family']))}")
    shard_s = sum(e["wall_time"] for e in entries)
    problems, lines, out["layers"] = traced(
        rep, sum(rep["op_s"]), shard_s, "shards",
        **{"experiments.campaign_shard_s": shard_s,
           "experiments.campaign_idle_s": wall - shard_s,
           "experiments.campaign_retries": float(sum(e["attempts"] for e in entries) - len(entries)),
           "runtime.workqueue_records": float(len(queue))})
    out["problems"] += problems
    out["lines"] += lines
    return out


def serve_requests(run, pool):
    """The measured requests: SERVE_REPEATS blocks, each every (netlist,
    family) pair once in a seeded order, each request with a seeded
    stimulus seed. Every block, and every seed, asks for the same work."""
    rng = random.Random(run.seed)
    requests = []
    for _ in range(SERVE_REPEATS):
        pairs = [(p, fam) for p in pool for fam in FAMILIES]
        rng.shuffle(pairs)
        requests += [{"name": p["name"], "file": p["file"], "family": fam,
                      "stimulus": rng.randrange(1, 2**31)} for p, fam in pairs]
    return requests


def block_walls(results, blocks):
    """Split a closed loop's time into its equal blocks of requests: each
    block ends when its last reply arrives."""
    size = len(results) // blocks
    ends = [min(r[0] for r in results)]
    for b in range(blocks):
        ends.append(max(r[1] for r in results[b * size:(b + 1) * size]))
    return [b - a for a, b in zip(ends, ends[1:])]


def payload(run, req, blifs):
    return {"verb": "estimate", "blif": blifs[req["file"]], "library": req["family"],
            "patterns": SERVE_PATTERNS, "seed": req["stimulus"], "domains": DOMAINS}


def start_daemon(run, progs, d, log):
    argv = [run.cntpower, "serve", "--socket", "s.sock", "--workers", str(WORKERS),
            "--library-file", run.ptl, "--run", "bench", "--log-level", "quiet"]
    proc = progs.start(argv, d, log)
    # Relative: a socket path must stay under ~100 bytes.
    return proc, os.path.join(os.path.relpath(d, run.root), "s.sock")


def serve_setup(run, progs, warmups, log):
    """Start a daemon in a fresh directory, wait until it is healthy and send
    the warm-up requests; returns (process, socket, seconds taken)."""
    t0 = time.perf_counter()
    proc, sock = start_daemon(run, progs, run.fresh("serve"), log)
    try:
        wait_healthy(sock, proc)
        warm = closed_loop(sock, warmups)
        bad = [r[2] for r in warm if r[2].get("status") != "ok"]
        if bad:
            raise RuntimeError(f"warm-up request failed: {bad[0]}")
    except BaseException:
        progs.stop(proc)
        raise
    return proc, sock, time.perf_counter() - t0


def serve(run, progs):
    pool_dir = run.fresh("pool")
    pool_json = os.path.join(pool_dir, "pool.json")
    run.must(progs, [run.exe, "pool", "--dir", pool_dir, "--out", pool_json], pool_dir)
    with open(pool_json) as f:
        pool = json.load(f)
    blifs = {}
    for p in pool:
        with open(p["file"]) as f:
            blifs[p["file"]] = f.read()
    requests = serve_requests(run, pool)
    # Warm-up: the first request of each family builds its matchlib.
    warmups = [payload(run, {"file": pool[1]["file"], "family": fam, "stimulus": 1}, blifs)
               for fam in FAMILIES]
    payloads = [payload(run, r, blifs) for r in requests]
    req_file = os.path.join(pool_dir, "requests.txt")
    with open(req_file, "w") as f:
        for r in requests:
            f.write(f"{r['file']} {r['family']} {r['stimulus']}\n")
    setup, codes = [], []
    with open(run.log, "ab") as log:
        # The last set-up before the measured phase serves it.
        before = 1 if run.trace else SETUP_BEFORE
        for i in range(before):
            proc, sock, wall = serve_setup(run, progs, warmups, log)
            setup.append(wall)
            if i < before - 1:
                codes.append(progs.stop(proc))

        def measure(connections):
            results = closed_loop(sock, payloads, connections)
            return results, call(sock, {"verb": "metrics"})["metrics"]

        try:
            if run.trace:
                # One connection beside the replay: the two share the host as
                # the measured run's two connections do.
                rep, (results, metrics) = run.replay(
                    progs, "serve", SERVE_PATTERNS, libfiles=[run.ptl], requests=req_file,
                    beside=lambda: measure(1))
            else:
                results, metrics = measure(SERVE_CONNECTIONS)
        finally:
            codes.append(progs.stop(proc))
        for _ in range(0 if run.trace else SETUP_AFTER):
            proc, _, wall = serve_setup(run, progs, warmups, log)
            setup.append(wall)
            codes.append(progs.stop(proc))
    replies = [r[2] for r in results]
    latencies, failed = tally(results)
    problems = check_serve(requests, replies)
    problems += [f"cntpower serve exited {c} on SIGTERM" for c in codes if c != 0]
    wall = max(r[1] for r in results) - min(r[0] for r in results)
    blocks = block_walls(results, SERVE_REPEATS)
    p50, p95 = percentile(latencies, 0.50), percentile(latencies, 0.95)
    fmt = lambda v: "refused" if v is None else f"{v:.2f} ms"
    lines = [f"rps {len(latencies) / wall:.3f} 1/s  (total {wall:.4f} s; blocks "
             + " ".join(f"{b:.3f}" for b in blocks) + ")",
             f"latency_p50_ms {fmt(p50)}  latency_p95_ms {fmt(p95)}  (n={len(latencies)})"]
    out = {"attempted": len(requests), "failed": failed, "problems": problems,
           "setup": setup, "wall_s": SERVE_REPEATS * statistics.median(blocks), "lines": lines}
    if not run.trace:
        return out
    for req, reply, r in zip(requests, replies, rep["items"]):
        if reply.get("status") == "ok" and (r["gates"], r["delay_s"]) != (
                reply["result"]["gates"], reply["result"]["delay_s"]):
            out["problems"].append(f"replay of {req['name']}/{req['family']} gives "
                                   f"{r['gates']}, {r['delay_s']}, the daemon "
                                   f"{reply['result']['gates']}, {reply['result']['delay_s']}")
    worker_p50 = metrics["dists"]["serve.request_wall_s"]["p50"]
    problems, lines, out["layers"] = traced(
        rep, sum(rep["op_s"]), sum(latencies) / 1e3, "requests",
        **{"runtime.server_overhead_ms": (p50 if p50 is not None else float("nan")) - worker_p50 * 1e3,
           "runtime.server_shed": float(metrics["counters"].get("serve.shed", 0))})
    out["problems"] += problems
    out["lines"] += lines
    return out


# --------------------------------------------------------------------------
# Host context (recorded, not gated)


def cpu_probe(root):
    """Time of fixed work on both cores at once (perfbench.exe probe); it
    shows host drift."""
    out = subprocess.run([os.path.join(root, EXE), "probe"], capture_output=True,
                         text=True, timeout=60)
    return float(out.stdout)


def command_output(argv, root):
    try:
        return subprocess.run(argv, cwd=root, capture_output=True, text=True,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def host_context(root, domains):
    return {"nproc": os.cpu_count(), "cntpower_domains": domains,
            "ocaml": command_output(["ocamlc", "-version"], root),
            "commit": command_output(["git", "rev-parse", "--short", "HEAD"], root)}


# --------------------------------------------------------------------------
# Entry point


def build(root):
    dune = shutil.which("dune")
    argv = [dune] if dune else ["opam", "exec", "--", "dune"]
    argv += ["build", "--root", ".", "./perfbench/perfbench.exe", "./bin/cntpower.exe"]
    try:
        done = subprocess.run(argv, cwd=root, stdout=sys.stderr, stderr=sys.stderr, timeout=900)
    except (OSError, subprocess.SubprocessError) as e:
        raise Unusable(f"cannot build: {e}")
    if done.returncode != 0:
        raise Unusable(f"build failed ({done.returncode})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=30,
                    help="nominal length of the measured phase; the workloads are "
                         "sized to about 30 s on a 2-core host")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be in 1..60")
    root = os.getcwd()
    try:
        missing = [p for p in REQUIRED if not os.path.exists(os.path.join(root, p))]
        if missing:
            raise Unusable(f"not a cntpower checkout (missing {', '.join(missing)})")
        build(root)
    except Unusable as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    env = dict(os.environ, CNTPOWER_DOMAINS=str(DOMAINS))
    env.pop("CNTPOWER_LIBPATH", None)
    base = os.path.join(root, ".perfbench")
    workdir = os.path.join(base, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run = Run(root, workdir, args.seed, args.trace)
    progs = Programs(env)
    host = host_context(root, DOMAINS)
    host["probe_before_s"] = cpu_probe(root)
    fn = {"table1-128k": table1, "campaign-65k": campaign, "serve-small": serve}[args.workload]
    try:
        res = fn(run, progs)
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        n = OPERATIONS[args.workload]
        res = {"attempted": n, "failed": n, "problems": [f"run failed: {e}"], "lines": []}
    host["probe_after_s"] = cpu_probe(root)

    correct = not res["problems"] and res["failed"] == 0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(res.get("layers", {}).items())}
    else:
        metrics = {}
        if "wall_s" in res:
            setup = statistics.median(res["setup"])
            print("setup samples " + " ".join(f"{w:.4f}" for w in res["setup"]) + " s")
            metrics = {"wall_s": {"value": res["wall_s"], "unit": "s"},
                       "setup_s": {"value": setup, "unit": "s"},
                       "peak_rss_mb": {"value": progs.peak_rss_kb / 1024.0, "unit": "MB"}}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for line in res["lines"]:
        print(line)
    print(f"error_rate {res['failed'] / max(1, res['attempted']):.4f} "
          f"({res['failed']} failed / {res['attempted']} attempted)")
    print("check " + ("ok" if correct else "FAILED"))
    for p in res["problems"][:20]:
        print(f"  {p}")
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    stem = os.path.join(base, "results", f"{args.workload}-s{args.seed}-t{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump(dict(result, host=host, problems=res["problems"], lines=res["lines"]), f,
                  indent=1)
    if run.trace_file:
        shutil.copyfile(run.trace_file, stem + ".trace.json")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ns_per_cube_word"):
        return "ns"
    if name.endswith(("_ratio", "coverage")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
