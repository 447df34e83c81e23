#!/usr/bin/env python3
"""End-to-end benchmark of isex: identify, solve and serve.

    python3 perfbench/run.py --workload identify --seed 1 --seconds 25 \
        --trace 0

Builds the library, the `isex` CLI and the traced replay from the sources
next to this directory (CMake, into $CARGO_TARGET_DIR or .bench_build),
measures the workload for --seconds, checks every output independently and
prints one JSON line last on stdout: {"correct", "attempted", "failed",
"metrics"}. With --trace 1 it instead runs the traced in-process replay and
prints the per-layer metrics; that run makes a fixed number of passes
and does not read --seconds. A full report (provenance, per-input floors
and quartiles, workload-specific figures) goes to
<build>/reports/<workload>-seed<N>-trace<T>.json. See README.md.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import measure  # noqa: E402

THREADS = 2            # pinned, so results never depend on the host's cores
REPLAY_THREADS = 1     # the traced replay: spans nest on one thread and
                       # counters are deterministic work counts
POOL_WORKERS = 2       # `serve --workers`, for supervise.dispatch_ms
SOLVE_REQUESTS = 200
MIN_ROUNDS = 3
SPAWNS_PER_ROUND = 3   # solve: spawn -> ping set-ups per round
LIST_PER_ROUND = 10    # identify: `isex list` set-ups per round
REPLAY_PASSES = 3      # traced replay: untraced and traced passes each

END_TO_END = {
    "setup_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms", "ops_per_s": "ops/s",
    "cpu_per_op_ms": "ms", "ok_share": "fraction", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "frontend.lift_ms": "ms", "frontend.insts": "count",
    "workloads.build_ms": "ms",
    "ise.enum_ms": "ms", "ise.miso_ms": "ms", "ise.grow_calls": "count",
    "ise.candidates": "count", "ise.accept_ratio": "ratio",
    "ise.input_reject_ratio": "ratio", "ise.cap_hits": "count",
    "select.curve_ms": "ms", "select.pool_ms": "ms",
    "select.pool_kept_ratio": "ratio", "select.knapsack_ms": "ms",
    "select.curve_points": "count",
    "certify.pool_ms": "ms", "certify.selection_ms": "ms",
    "certify.checks": "count",
    "customize.edf_ms": "ms", "customize.edf_dp_cells": "count",
    "customize.rms_ms": "ms", "customize.rms_nodes": "count",
    "customize.rms_prune_ratio": "ratio", "customize.rms_truncations": "count",
    "robust.ladder_ms": "ms", "robust.retries": "count",
    "robust.rungs_per_op": "ratio",
    "serve.decode_ms": "ms", "serve.handle_ms": "ms", "serve.hit_ms": "ms",
    "serve.miss_ms": "ms", "serve.cache_hit_ratio": "ratio",
    "serve.transport_ms": "ms", "supervise.dispatch_ms": "ms",
    "trace.overhead": "ratio", "trace.identify.coverage": "ratio",
    "trace.solve.coverage": "ratio", "trace.serve.coverage": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log("perfbench: " + msg)
    sys.exit(2)


# --- build -----------------------------------------------------------------------

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds isex + perfbench_trace. Returns the
    build directory."""
    for need in ("src/CMakeLists.txt", "tools/isex_cli.cpp"):
        if not (ROOT / need).is_file():
            die(f"isex sources not found: {need} is missing next to perfbench/")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return bdir


# --- provenance ------------------------------------------------------------------

def source_digest():
    """sha256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    for sub in ("src", "tools", "perfbench"):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def build_type(bdir):
    for line in (bdir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return None


# --- shared helpers --------------------------------------------------------------

class Tally:
    """Ops attempted / passed, and the problems behind every failure."""

    def __init__(self):
        self.attempted = 0
        self.passed = 0
        self.problems = []

    def op(self, problems):
        self.attempted += 1
        if problems:
            self.problems.extend(problems)
        else:
            self.passed += 1


def timing_metrics(lat, cpu_per_op_s, setup, rss_kb, tally):
    """The end-to-end metrics shared by every workload. `lat` maps each
    distinct input to its per-round latencies (s); `setup` holds every
    set-up time of the run, and setup_s is their median."""
    fl = measure.floors(lat)
    vals = list(fl.values())
    t = measure.tail(vals)
    return {
        "setup_s": statistics.median(setup),
        "op_ms_p50": 1e3 * statistics.median(vals),
        "op_ms_tail": 1e3 * (t[0] if t else max(vals)),
        "ops_per_s": len(vals) / sum(vals),
        "cpu_per_op_ms": 1e3 * cpu_per_op_s,
        "ok_share": tally.passed / tally.attempted,
        "peak_rss_mb": rss_kb / 1024,
    }, t


def determinism(outputs):
    """outputs: input -> list of per-round outputs. Returns mismatching
    inputs (an output or disposition that changed between rounds)."""
    return sorted(k for k, v in outputs.items() if any(o != v[0] for o in v))


def rounds_until(deadline, body):
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() < deadline:
        body(r)
        r += 1
    return r


def select_figures(results):
    """exact_share, sched_share, util_mean over select result objects."""
    sel = [r for r in results if r.get("cmd") == "select"]
    if not sel:
        return {}
    return {
        "exact_share": sum(r["status"] == "Exact" for r in sel) / len(sel),
        "sched_share": sum(bool(r["schedulable"]) for r in sel) / len(sel),
        "util_mean": sum(r["utilization"] for r in sel) / len(sel),
        "selects": len(sel),
    }


# --- identify --------------------------------------------------------------------

def emit_fixtures(isex, work):
    for f in inputs.FIXTURES:
        out = work / f"{f}.elf"
        subprocess.run([str(isex), "lift", "--emit-fixture", f, str(out)],
                       stdout=subprocess.DEVNULL, check=True)


def identify_argv(isex, op, threads):
    _, kind, arg = op
    if kind == "curve":
        return [str(isex), "--threads", str(threads), "curve", arg, "--csv"]
    return [str(isex), "--threads", str(threads), "lift", f"{arg}.elf"]


def identify_curve(op, text):
    return (checks.parse_curve_csv(text) if op[1] == "curve"
            else checks.parse_lift_curve(text))


def run_identify(bdir, work, seed, seconds):
    isex = bdir / "bin" / "isex"
    emit_fixtures(isex, work)
    ops = inputs.identify_ops()
    rng = random.Random(f"identify:{seed}")
    rng.shuffle(ops)
    sw = {k: pts[0][1] for k, pts in inputs.load_curves().items()}
    lat = {op[0]: [] for op in ops}
    cpu = {op[0]: [] for op in ops}
    outs = {op[0]: [] for op in ops}
    rss = {op[0]: [] for op in ops}
    setup = []
    tally = Tally()

    def one_round(r):
        for _ in range(LIST_PER_ROUND):
            wall, _, _, rc, _ = measure.run_op([str(isex), "list"], work)
            if rc != 0:
                raise RuntimeError("isex list failed")
            setup.append(wall)
        n = len(ops)
        for j in range(n):  # rotated, so drift hits every input evenly
            op = ops[(r + j) % n]
            wall, c, m, rc, text = measure.run_op(
                identify_argv(isex, op, THREADS), work)
            lat[op[0]].append(wall)
            cpu[op[0]].append(c)
            outs[op[0]].append((rc, text))
            rss[op[0]].append(m)

    deadline = time.perf_counter() + seconds
    rounds = rounds_until(deadline, one_round)

    mismatched = determinism(outs)
    ratios = []
    for op in ops:
        name = op[0]
        for rc, text in outs[name]:
            rows = identify_curve(op, text)
            probs = [f"{name}: exit {rc}"] if rc != 0 else []
            if rows is None:
                probs.append(f"{name}: no curve in output")
            else:
                probs += [f"{name}: {p}" for p in checks.check_curve(
                    rows, sw.get(op[2]) if op[1] == "curve" else None)]
            if name in mismatched:
                probs.append(f"{name}: output changed between rounds")
            tally.op(probs)
        rows = identify_curve(op, outs[name][0][1]) or [(0, 1, 1)]
        ratios.append(rows[-1][1] / rows[0][1])

    # Untimed verify pass: one thread must give the same bytes as two.
    for op in ops:
        _, _, _, rc, text = measure.run_op(identify_argv(isex, op, 1), work)
        tally.op([] if (rc, text) == outs[op[0]][0] else
                 [f"{op[0]}: --threads 1 output differs from --threads 2"])
    # Untimed certify pass on one seeded kernel.
    kernel = random.Random(f"certify:{seed}").choice(inputs.KERNELS)
    _, _, _, rc, _ = measure.run_op(
        [str(isex), "--threads", str(THREADS), "certify", kernel], work)
    tally.op([] if rc == 0 else [f"certify {kernel}: exit {rc}"])

    cpu_floor = sum(min(v) for v in cpu.values()) / len(cpu)
    # Parallel enumeration makes an op's peak RSS vary between rounds, so
    # peak_rss_mb, like the times, comes from per-input floors.
    rss_kb = max(measure.floors(rss).values())
    metrics, t = timing_metrics(lat, cpu_floor, setup, rss_kb, tally)
    extra = {
        "rounds": rounds, "inputs": len(ops), "certified_kernel": kernel,
        "cycles_ratio_gmean": math.exp(
            sum(math.log(x) for x in ratios) / len(ratios)),
        "determinism_mismatches": mismatched,
        "tail": t, "per_input": measure.spread_record(lat),
        "setup_floor_s": min(setup),
        "setup_quartiles": measure.quartiles(setup),
    }
    return metrics, tally, extra


# --- solve ----------------------------------------------------------------------

def serve_argv(isex, workers=0, cache_entries=None):
    argv = [str(isex), "--threads", str(THREADS), "serve"]
    if workers:
        argv += ["--workers", str(workers)]
    if cache_entries is not None:
        argv += ["--cache-entries", str(cache_entries)]
    return argv


def run_solve(bdir, work, seed, seconds):
    isex = bdir / "bin" / "isex"
    reqs = inputs.solve_requests(seed, inputs.load_curves(), SOLVE_REQUESTS)
    argv = serve_argv(isex, cache_entries=0)
    ping = '{"id":"ping","cmd":"ping"}'
    setup = []

    def spawn_to_ping():
        s = measure.Server(argv, work)
        try:
            s.request(ping)
            setup.append(time.perf_counter() - s.t_spawn)
        finally:
            s.close()

    lat = {i: [] for i in range(len(reqs))}
    outs = {i: [] for i in range(len(reqs))}
    raw = {}
    cpu_rounds = []
    srv = measure.Server(argv, work)
    try:
        srv.request(ping)
        setup.append(time.perf_counter() - srv.t_spawn)

        def one_round(r):
            for _ in range(SPAWNS_PER_ROUND):  # set-ups interleaved, too
                spawn_to_ping()
            n = len(reqs)
            c0 = srv.cpu_ns()
            for j in range(n):  # rotated, so drift hits every input evenly
                i = (r * 37 + j) % n
                resp, dt = srv.request(reqs[i])
                lat[i].append(dt)
                outs[i].append((checks.disposition(resp),
                                checks.canonical(resp)))
                raw.setdefault(i, resp)
            cpu_rounds.append((srv.cpu_ns() - c0) / 1e9 / n)

        deadline = time.perf_counter() + seconds
        rounds = rounds_until(deadline, one_round)
        rss = srv.rss_kb()
    finally:
        rc = srv.close()

    tally = Tally()
    mismatched = determinism(outs)
    results = []
    for i, line in enumerate(reqs):
        probs = checks.check_response("select", line, raw[i])
        if i in mismatched:
            probs.append(f"request {i}: output changed between rounds")
        for _ in outs[i]:
            tally.op(probs)
        results.append(json.loads(raw[i]).get("result", {}))
    if rc != 0:
        tally.op([f"isex serve exit {rc}"])

    metrics, t = timing_metrics(lat, min(cpu_rounds), setup, rss, tally)
    extra = {"rounds": rounds, "inputs": len(reqs),
             "determinism_mismatches": mismatched, "tail": t,
             "per_input": measure.spread_record(lat),
             "setup_floor_s": min(setup),
             "setup_quartiles": measure.quartiles(setup),
             "cpu_per_op_quartiles_ms": [1e3 * x for x in
                                         measure.quartiles(cpu_rounds)],
             **select_figures(results)}
    extra["problems"] = tally.problems[:20]
    return metrics, tally, extra


# --- serve ----------------------------------------------------------------------

def serve_round(isex, work, stream, workers):
    """One fresh server: warm-up (set-up), then the stream, closed loop.
    Returns (setup_s, [(latency_s, response)], stream_cpu_s, rss_kb, rc)."""
    warm = inputs.serve_warmup(workers)
    srv = measure.Server(serve_argv(isex, workers), work)
    try:
        for w in warm:  # together, so a pool spreads them over its workers
            srv.send(w)
        for _ in warm:
            if not json.loads(srv.recv()).get("ok"):
                raise RuntimeError("serve warm-up failed")
        setup = time.perf_counter() - srv.t_spawn
        c0 = srv.cpu_ns()
        got = [srv.request(line)[::-1] for _, line in stream]
        cpu = (srv.cpu_ns() - c0) / 1e9
        rss = srv.rss_kb()
    except BaseException:
        srv.kill()
        raise
    return setup, got, cpu, rss, srv.close()


def check_stream(stream, responses):
    """Independent checks of one round's responses. Returns per-line
    problem lists."""
    first = {}
    out = []
    for (kind, line), resp in zip(stream, responses):
        probs = checks.check_response(kind, line, resp, first.get(line))
        if kind == "select":
            first[line] = checks.raw_result(resp)
        out.append(probs)
    return out


def serve_samples(isex, work, stream, workers, deadline):
    """Serve rounds until `deadline` (at least MIN_ROUNDS). Returns per-line
    latencies and outputs, per-round set-up and CPU per line, the floor over
    rounds of the server's peak RSS, per-round problems, the round count and
    the first round's responses."""
    lat = {i: [] for i in range(len(stream))}
    outs = {i: [] for i in range(len(stream))}
    setup, cpu, rss, problems, first = [], [], [], [], []

    def one_round(r):
        s, got, c, m, rc = serve_round(isex, work, stream, workers)
        setup.append(s)
        cpu.append(c / len(stream))
        rss.append(m)
        per_line = check_stream(stream, [resp for _, resp in got])
        if rc != 0:
            per_line[-1] = per_line[-1] + [f"isex serve exit {rc}"]
        problems.append(per_line)
        for i, (dt, resp) in enumerate(got):
            lat[i].append(dt)
            outs[i].append((checks.disposition(resp), checks.canonical(resp)))
        if r == 0:
            first.extend(resp for _, resp in got)

    rounds = rounds_until(deadline, one_round)
    return lat, outs, setup, cpu, min(rss), problems, rounds, first


def run_serve(bdir, work, seed, seconds):
    isex = bdir / "bin" / "isex"
    stream = inputs.serve_stream(seed)
    lat, outs, setup, cpu, rss, problems, rounds, first = serve_samples(
        isex, work, stream, 0, time.perf_counter() + seconds)
    tally = Tally()
    mismatched = determinism(outs)
    for per_line in problems:
        for i, probs in enumerate(per_line):
            tally.op(probs + ([f"line {i}: output changed between rounds"]
                              if i in mismatched else []))
    hits = [i for i, (kind, _) in enumerate(stream) if kind == "repeat"]
    metrics, t = timing_metrics(lat, min(cpu), setup, rss, tally)
    fl = measure.floors(lat)
    results = [json.loads(r).get("result", {}) for r in first
               if json.loads(r).get("ok")]
    extra = {"rounds": rounds, "inputs": len(stream),
             "hit_ms_p50": 1e3 * statistics.median([fl[i] for i in hits]),
             "hits": len(hits),
             "kinds": {k: sum(1 for kk, _ in stream if kk == k)
                       for k in ("select", "repeat", "malformed",
                                 "bad_schema", "ping")},
             "determinism_mismatches": mismatched, "tail": t,
             "per_input": measure.spread_record(lat),
             "setup_floor_s": min(setup),
             "setup_quartiles": measure.quartiles(setup),
             "cpu_per_op_quartiles_ms": [1e3 * x for x in
                                         measure.quartiles(cpu)],
             **select_figures(results)}
    extra["problems"] = tally.problems[:20]
    return metrics, tally, extra


# --- traced run -----------------------------------------------------------------

# Spans the replay opens itself around public calls the library does not
# trace; they sit outside the op spans.
PROBES = ("frontend.lift_elf", "certify.check_candidate_pool",
          "certify.check_selection", "serve.decode_request")


def span_times(trace_file):
    """Chrome-trace spans -> ({name: [incl_ns, self_ns, calls]}, op_incl_ns,
    op_self_ns, decode_ns). Spans nest per thread; self time is a span minus
    its direct children. Only spans inside an "op" span, and the probes,
    count: library spans a probe runs outside one (its own input
    preparation) are left out."""
    events = [e for e in json.loads(Path(trace_file).read_text())["traceEvents"]
              if e.get("ph") == "X" and e.get("pid") == 1]
    by_tid = {}
    for e in events:
        t0 = round(e["ts"] * 1000)
        by_tid.setdefault(e["tid"], []).append(
            [t0, t0 + round(e["dur"] * 1000), e["name"]])
    layers, op_incl, op_self, decode = {}, 0, 0, []
    for spans in by_tid.values():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack, child, in_op = [], [0] * len(spans), [False] * len(spans)
        for i, (t0, t1, name) in enumerate(spans):
            while stack and spans[stack[-1]][1] <= t0:
                stack.pop()
            if stack:
                child[stack[-1]] += t1 - t0
                in_op[i] = in_op[stack[-1]] or spans[stack[-1]][2] == "op"
            stack.append(i)
        for i, (t0, t1, name) in enumerate(spans):
            if name == "op":
                op_incl += t1 - t0
                op_self += t1 - t0 - child[i]
            elif in_op[i] or name in PROBES:
                agg = layers.setdefault(name, [0, 0, 0])
                agg[0] += t1 - t0
                agg[1] += t1 - t0 - child[i]
                agg[2] += 1
                if name == "serve.decode_request":
                    decode.append(t1 - t0)
    return layers, op_incl, op_self, decode


def replay_pass(bdir, work, traced, prefix):
    """One perfbench_trace process: every workload's inputs, once."""
    r = subprocess.run([str(bdir / "bin" / "perfbench_trace"), "--work",
                        str(work), "--threads", str(REPLAY_THREADS),
                        "--traced", str(int(traced)), "--trace-prefix",
                        str(prefix)],
                       cwd=work, capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        raise RuntimeError("perfbench_trace failed: " + r.stderr.strip())
    return json.loads(r.stdout)["ops"]


def layer_metrics(ops, spans):
    """The per-layer figures of one traced pass. `spans` maps a workload to
    span_times() of its trace."""
    def ctr(workload, *names):
        return sum(o["counters"].get(n, 0) for o in ops
                   if o["workload"] == workload for n in names)

    def self_ms(workload, *names, prefix=False):
        layers = spans[workload][0]
        return 1e-6 * sum(v[1] for k, v in layers.items()
                          if (k.startswith(names[0]) if prefix else k in names))

    def ratio(a, b):
        return a / b if b else 0.0

    grow = ctr("identify", "ise.enum.grow_calls")
    cands = ctr("identify", "ise.enum.candidates", "ise.miso.candidates")
    rms_nodes = ctr("solve", "customize.rms.nodes")
    solve_ops = [o for o in ops if o["workload"] == "solve"]
    rungs = [1 + json.loads(o["out"])["result"]["detail"].count(" -> ")
             for o in solve_ops]
    curve = spans["identify"][0].get("select.build_config_curve", [0, 0, 0])
    return {
        "frontend.lift_ms": self_ms("identify", "frontend.lift_elf"),
        "frontend.insts": sum(o["insts"] for o in ops if o["insts"] > 0),
        "workloads.build_ms": self_ms("identify", "workloads.build_task.",
                                      prefix=True),
        "ise.enum_ms": self_ms("identify", "ise.enumerate_connected",
                               "ise.enumerate_candidates",
                               "ise.enumerate_disconnected"),
        "ise.miso_ms": self_ms("identify", "ise.maximal_misos"),
        "ise.grow_calls": grow,
        "ise.candidates": cands,
        "ise.accept_ratio": ratio(ctr("identify", "ise.enum.candidates"), grow),
        "ise.input_reject_ratio": ratio(
            ctr("identify", "ise.enum.input_rejects"), grow),
        "ise.cap_hits": ctr("identify", "ise.enum.budget_exhausted"),
        "select.curve_ms": 1e-6 * curve[0],
        "select.pool_ms": self_ms("identify", "select.selection_items"),
        "select.pool_kept_ratio": ratio(
            ctr("identify", "select.knapsack_items"), cands),
        "select.knapsack_ms": self_ms("identify", "select.build_config_curve"),
        "select.curve_points": sum(
            len(identify_curve((None, o["name"].split(":")[0]), o["out"]) or [])
            for o in ops if o["workload"] == "identify"),
        "certify.pool_ms": self_ms("identify", "certify.check_candidate_pool"),
        "certify.selection_ms": self_ms("solve", "certify.check_selection"),
        "certify.checks": ctr("solve", "certify.sched.checks"),
        "customize.edf_ms": self_ms("solve", "customize.select_edf"),
        "customize.edf_dp_cells": ctr("solve", "customize.edf.dp_cells"),
        "customize.rms_ms": self_ms("solve", "customize.select_rms"),
        "customize.rms_nodes": rms_nodes,
        "customize.rms_prune_ratio": ratio(
            ctr("solve", "customize.rms.bound_pruned",
                "customize.rms.area_pruned", "customize.rms.sched_pruned"),
            rms_nodes),
        "customize.rms_truncations": ctr("solve",
                                         "customize.rms.budget_truncations"),
        "robust.ladder_ms": self_ms("solve", "robust.fallback.select_edf",
                                    "robust.fallback.select_rms"),
        "robust.retries": ctr(
            "solve", "robust.fallback.edf.coarse_retries",
            "robust.fallback.edf.greedy_retries",
            "robust.fallback.rms.beam_retries",
            "robust.fallback.rms.greedy_retries"),
        "robust.rungs_per_op": statistics.mean(rungs),
        "serve.decode_ms": 1e-6 * statistics.median(spans["serve"][3]),
    }


# Per-layer figures that are counts: deterministic at REPLAY_THREADS, so
# every traced pass must give the same value.
COUNTS = ("frontend.insts", "ise.grow_calls", "ise.candidates",
          "ise.cap_hits", "select.curve_points", "certify.checks",
          "customize.edf_dp_cells", "customize.rms_nodes",
          "customize.rms_truncations", "robust.retries")


def run_traced(bdir, work, seed, workload):
    """The per-layer metrics: alternating untraced and traced passes of the
    in-process replay (perfbench_trace), checked against the CLI, plus pipe
    floors for the transport and dispatch layers."""
    isex = bdir / "bin" / "isex"
    emit_fixtures(isex, work)
    ops = inputs.identify_ops()
    reqs = inputs.solve_requests(seed, inputs.load_curves(), SOLVE_REQUESTS)
    stream = inputs.serve_stream(seed)
    (work / "identify.txt").write_text("".join(
        f"curve {a}\n" if k == "curve" else f"lift {a}.elf\n"
        for _, k, a in ops))
    (work / "solve.jsonl").write_text("".join(r + "\n" for r in reqs))
    (work / "serve.jsonl").write_text("".join(l + "\n" for _, l in stream))
    (work / "serve_warmup.jsonl").write_text(
        "".join(l + "\n" for l in inputs.serve_warmup(0)))

    tally = Tally()
    # What the CLI and the servers answer, for the faithfulness checks.
    cli_identify = [measure.run_op(identify_argv(isex, op, THREADS), work)[3:]
                    for op in ops]
    srv = measure.Server(serve_argv(isex, cache_entries=0), work)
    try:
        cli_solve = [srv.request(r)[0] for r in reqs]
    finally:
        srv.close()
    # Pipe floors. The pool gets the stream's distinct selects only: they are
    # the lines its supervisor dispatches to a worker.
    pool_stream = [x for x in stream if x[0] == "select"]
    pipe = {}
    for workers, lines in ((0, stream), (POOL_WORKERS, pool_stream)):
        lat, _, _, _, _, problems, _, first = serve_samples(
            isex, work, lines, workers, 0)
        pipe[workers] = (measure.floors(lat), first)
        for per_line in problems:
            for probs in per_line:
                tally.op(probs)

    prefix = bdir / "reports" / f"trace-{workload}-seed{seed}"
    floors = {False: {}, True: {}}   # (workload, op name) -> ns
    layers, coverage = [], {}
    for p in range(2 * REPLAY_PASSES):
        traced = p % 2 == 1  # alternating, so drift hits both kinds alike
        rops = replay_pass(bdir, work, traced, prefix)
        for o in rops:
            key = (o["workload"], o["name"])
            floors[traced][key] = min(o["ns"], floors[traced].get(key, 1e30))
        # Faithfulness: the replay answers what the CLI and the server do.
        by_wl = {w: [o for o in rops if o["workload"] == w]
                 for w in ("identify", "solve", "serve")}
        for op, got, want in zip(ops, by_wl["identify"], cli_identify):
            tally.op([] if (got["rc"], got["out"]) == tuple(want) else
                     [f"replay {op[0]}: output differs from the CLI"])
        for i, got in enumerate(by_wl["solve"]):
            tally.op([] if checks.canonical(got["out"]) ==
                     checks.canonical(cli_solve[i]) else
                     [f"replay solve {i}: response differs from the server"])
        for i, got in enumerate(by_wl["serve"]):
            tally.op([] if checks.canonical(got["out"]) ==
                     checks.canonical(pipe[0][1][i]) else
                     [f"replay serve line {i}: response differs from the pipe"])
        if not traced:
            continue
        spans = {w: span_times(f"{prefix}-{w}.json") for w in by_wl}
        layers.append(layer_metrics(rops, spans))
        for w, (_, incl, self_ns, _) in spans.items():
            coverage[w] = 1 - self_ns / incl
        dispositions = [o["disposition"] for o in by_wl["serve"]]

    # Times: floors over traced passes. Counts must repeat exactly.
    metrics = {k: min(m[k] for m in layers) for k in layers[0]}
    for k in COUNTS:
        tally.op([] if all(m[k] == layers[0][k] for m in layers) else
                 [f"{k} changed between traced passes"])
        metrics[k] = layers[0][k]
    untraced = floors[False]
    serve_fl = [untraced[("serve", str(i))] * 1e-9 for i in range(len(stream))]
    hits = [t for t, d in zip(serve_fl, dispositions) if d == "cached"]
    misses = [t for t, d in zip(serve_fl, dispositions)
              if d in ("exact", "degraded")]
    metrics["serve.handle_ms"] = 1e3 * statistics.mean(serve_fl)
    metrics["serve.hit_ms"] = 1e3 * statistics.median(hits)
    metrics["serve.miss_ms"] = 1e3 * statistics.median(misses)
    metrics["serve.cache_hit_ratio"] = len(hits) / (len(hits) + len(misses))
    metrics["serve.transport_ms"] = 1e3 * statistics.median(
        [pipe[0][0][i] - serve_fl[i] for i in range(len(stream))])
    select_idx = [i for i, x in enumerate(stream) if x[0] == "select"]
    metrics["supervise.dispatch_ms"] = 1e3 * statistics.median(
        [pipe[POOL_WORKERS][0][j] - pipe[0][0][i]
         for j, i in enumerate(select_idx)])
    metrics["trace.overhead"] = (sum(floors[True].values()) /
                                 sum(untraced.values()) - 1)
    for w, c in coverage.items():
        metrics[f"trace.{w}.coverage"] = c
        # The layer spans must account for the op time they wrap.
        tally.op([] if c > 0.9 else
                 [f"trace {w}: layer spans cover under 90% of op time"])
    overhead = {w: sum(v for k, v in floors[True].items() if k[0] == w) /
                sum(v for k, v in untraced.items() if k[0] == w) - 1
                for w in coverage}
    extra = {"trace_files": [f"{prefix.name}-{w}.json" for w in coverage],
             "overhead_per_workload": overhead,
             "replay_threads": REPLAY_THREADS, "passes": REPLAY_PASSES,
             "layer_passes": layers, "problems": tally.problems[:20]}
    return metrics, tally, extra


# --- main -------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["identify", "solve", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be >= 1")
    gc.disable()  # a collector pause would land in a measured latency

    bdir = build()
    work = bdir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    (bdir / "reports").mkdir(exist_ok=True)

    silent = checks.self_test()
    if silent:
        die("output checks accepted corrupted input: " + ", ".join(silent))

    prov = {"git_sha": git_sha(), "source_sha256": source_digest(),
            "build_type": build_type(bdir), "nproc": os.cpu_count(),
            "threads": THREADS, "loadavg_before": os.getloadavg(),
            "calibration_floor_s": measure.calibration_floor()}
    t0 = time.perf_counter()
    try:
        if args.trace:
            metrics, tally, extra = run_traced(bdir, work, args.seed,
                                               args.workload)
            units = PER_LAYER
        else:
            run = {"identify": run_identify, "solve": run_solve,
                   "serve": run_serve}
            metrics, tally, extra = run[args.workload](bdir, work, args.seed,
                                                       args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prov["loadavg_after"] = os.getloadavg()
    prov["elapsed_s"] = time.perf_counter() - t0

    missing = sorted(set(units) - set(metrics))
    if missing:
        die("metrics not produced: " + ", ".join(missing))
    result = {
        "correct": not tally.problems and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.attempted - tally.passed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, "result": result, "detail": extra}
    (bdir / "reports" /
     f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))
    for p in tally.problems[:10]:
        log("check failed: " + p)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
