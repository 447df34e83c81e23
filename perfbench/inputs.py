"""Seeded inputs of the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the same
inputs, byte for byte. The program under test only ever sees the generated
inputs, never the seed.
"""

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

# The 18 kernels of the thesis' Table 5.1 benchmark pool.
KERNELS = [
    "crc32", "sha", "blowfish", "rijndael", "susan", "adpcm_enc",
    "adpcm_dec", "cjpeg", "djpeg", "g721encode", "g721decode", "jfdctint",
    "ndes", "edn", "lms", "compress", "aes", "3des",
]

# The five hand-assembled MiBench loops of the binary frontend.
FIXTURES = ["crc32", "sha", "dijkstra", "adpcm_enc", "stringsearch"]

# Kernels the serve stream names: cheap to identify, so the stream's work is
# decode, cache and render rather than solver time.
SERVE_KERNELS = ["crc32", "sha", "adpcm_enc", "adpcm_dec", "stringsearch"]

# Wall-clock budget every select carries: the schema cap. Each line's
# deterministic node budget binds long before it (see README.md).
TIME_BUDGET_MS = 5000

# Node budgets. A solve request gets SOLVE_NODE_BUDGET charges; serve lines
# keep the traffic generator's 200k.
SOLVE_NODE_BUDGET = 5000
SERVE_NODE_BUDGET = 200000

MAX_INLINE_CONFIGS = 8
HEAVY_RMS_TASKS = 5


def load_curves(path=HERE / "data" / "curves.csv"):
    """kernel -> [(area, cycles), ...] in file order."""
    curves = {}
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#") or line.startswith("kernel,"):
            continue
        k, a, c = line.split(",")
        curves.setdefault(k, []).append((float(a), float(c)))
    return curves


def thin(points, limit):
    """At most `limit` points of a curve, evenly spaced, first and last kept."""
    if len(points) <= limit:
        return list(points)
    n = len(points)
    idx = sorted({(i * (n - 1)) // (limit - 1) for i in range(limit)})
    return [points[i] for i in idx]


def identify_ops():
    """The identify round: one `isex curve` per kernel, one `isex lift` per
    fixture. Each op is (name, kind, arg)."""
    return ([("curve:" + k, "curve", k) for k in KERNELS] +
            [("lift:" + f, "lift", f) for f in FIXTURES])


def solve_requests(seed, curves, n=200):
    """`n` distinct select requests over inline task sets, in seeded order.
    The design is stratified so that every seed has the same mix: requests
    alternate EDF and RMS and cycle through 3-8 tasks. Each request draws
    its kernels, utilization (1.00-1.70), periods and budget fraction
    (0.10-0.90) from its own generator. That generator is seeded by --seed,
    except for RMS requests with HEAVY_RMS_TASKS tasks or more: the effort
    of RMS branch-and-bound is heavy-tailed per instance, and a handful of
    hard instances decided each seed's throughput (the sum of per-request
    floors spread 38-52% across seeds). Those requests are the same for
    every seed; only their position in the stream moves."""
    order = random.Random(f"solve-order:{seed}")
    lines, seen = [], set()
    i = 0
    while len(lines) < n:
        rms = len(lines) % 2 == 1
        ntasks = 3 + (len(lines) // 2) % 6
        fixed = rms and ntasks >= HEAVY_RMS_TASKS
        rng = random.Random(f"solve:{'fixed' if fixed else seed}:{i}")
        i += 1
        kernels = rng.sample(KERNELS, ntasks)
        u0 = rng.randint(100, 170) / 100
        # Periods within a factor of 4 of each other, scaled so the
        # software utilization is u0: response-time analysis stays cheap,
        # while the tasks' utilizations still span the kernels' cycle
        # counts.
        ratios = [rng.uniform(1, 4) for _ in kernels]
        scale = sum(curves[k][0][1] / r for k, r in zip(kernels, ratios)) / u0
        tasks = []
        for k, r in zip(kernels, ratios):
            pts = thin(curves[k], MAX_INLINE_CONFIGS)
            tasks.append({"name": k, "period": round(r * scale),
                          "configs": [[a, c] for a, c in pts]})
        req = {"cmd": "select", "policy": "rms" if rms else "edf",
               "budget_fraction": rng.randint(10, 90) / 100,
               "tasks": tasks,
               "node_budget": SOLVE_NODE_BUDGET,
               "time_budget_ms": TIME_BUDGET_MS}
        key = json.dumps(req, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        lines.append(req)
    order.shuffle(lines)
    return [json.dumps({"id": f"s{j}", **req}, separators=(",", ":"))
            for j, req in enumerate(lines)]


def _select_by_name(rng, ident, kernels, policy):
    req = {"id": ident, "cmd": "select", "policy": policy,
           "benchmarks": [rng.choice(SERVE_KERNELS) for _ in range(kernels)],
           "u0": rng.randint(10, 20) / 10,
           "budget_fraction": rng.randint(1, 9) / 10,
           "node_budget": SERVE_NODE_BUDGET,
           "time_budget_ms": TIME_BUDGET_MS}
    return json.dumps(req, separators=(",", ":"))


def _malformed(rng, ident, kind):
    """A line that is never well-formed JSON, of one of 5 kinds."""
    if kind == 0:  # a valid request cut before its closing brace
        v = _select_by_name(rng, ident, 1, "edf")
        return v[:rng.randint(1, len(v) - 1)]
    if kind == 1:  # trailing garbage after a complete object
        return '{"id":"%s","cmd":"ping"}}' % ident
    if kind == 2:  # unbalanced nesting
        return "[" * rng.randint(2, 40) + "]"
    if kind == 3:  # bare word
        return rng.choice(["nul", "tru", "select", "ping please"])
    return '{"id":"%s","cmd":' % ident


def _bad_schema(ident, kind):
    """Well-formed JSON that violates the request schema, of one of 6
    kinds."""
    return [
        '{"id":"%s","cmd":"launch"}' % ident,
        '{"id":"%s","cmd":"select","benchmarks":["crc32"],"u0":1.0,'
        '"tasks":[],"budget_fraction":0.5}' % ident,
        '{"id":"%s","cmd":"select","benchmarks":["crc32"],"u0":-3,'
        '"budget_fraction":0.5}' % ident,
        '{"id":"%s","cmd":"select","benchmarks":["quicksort9000"],'
        '"u0":1.0,"budget_fraction":0.5}' % ident,
        '{"id":42,"cmd":"ping"}',
        '{"id":"%s","cmd":"select","benchmarks":["sha"],"u0":1.0}' % ident,
    ][kind]


# Line kinds of the serve stream: the shares of serve::TrafficOptions'
# defaults (20% repeats, 15% malformed, 10% bad schema, 5% pings), with its
# 15% overbudget class (time_budget_ms:1, so the wall clock decides the
# outcome) given to the distinct selects. The 5% probe share is all pings:
# a stats answer carries latency figures, which differ between rounds.
SERVE_MIX = {"select": 160, "repeat": 64, "malformed": 48, "bad_schema": 32,
             "ping": 16}


def serve_stream(seed):
    """A closed-loop client's stream: [(kind, line)] with the fixed SERVE_MIX
    counts in seeded positions. The j-th distinct select names 1 + j % 3
    kernels and is RMS for two j in five. `repeat` lines are byte-identical
    replays of an earlier select, so the server's cache answers them. The
    160 distinct selects stay below the 512-entry cache. Malformed and
    bad-schema lines cycle through their kinds, so every seed has the same
    count of each."""
    rng = random.Random(f"serve:{seed}")
    kinds = [k for k, n in SERVE_MIX.items() for _ in range(n)]
    rng.shuffle(kinds)
    first = kinds.index("select")  # every repeat needs an earlier select
    kinds.insert(0, kinds.pop(first))
    out, selects, seen = [], [], set()
    count = dict.fromkeys(SERVE_MIX, 0)
    for i, kind in enumerate(kinds):
        nth = count[kind]
        count[kind] += 1
        if kind == "select":
            j = len(selects)
            kernels = 1 + j % 3
            policy = "rms" if j % 5 in (1, 3) else "edf"
            # RMS over 3 kernels is the costliest class and sets op_ms_tail:
            # it is drawn the same for every seed (see solve_requests).
            fixed = policy == "rms" and kernels == 3
            pick = random.Random(f"serve:fixed:{j}") if fixed else rng
            while True:
                line = _select_by_name(pick, f"q{i}", kernels, policy)
                body = line.split(",", 1)[1]  # the cache key ignores the id
                if body not in seen:
                    break
            seen.add(body)
            selects.append(line)
        elif kind == "repeat":
            line = rng.choice(selects)
        elif kind == "malformed":
            line = _malformed(rng, f"m{i}", nth % 5)
        elif kind == "bad_schema":
            line = _bad_schema(f"b{i}", nth % 6)
        else:
            line = '{"id":"p%d","cmd":"ping"}' % i
        out.append((kind, line))
    return out


def serve_warmup(workers):
    """Lines that make the server identify every kernel the stream names.
    Their budget fractions are ones no timed line uses, so the warm-up never
    pre-fills the cache for the stream. Each worker gets its own line; the
    lines are sent together so a pool spreads them over idle workers."""
    return [json.dumps({"id": f"w{i}", "cmd": "select",
                        "benchmarks": SERVE_KERNELS, "u0": 1.05,
                        "budget_fraction": 0.95 + 0.01 * i,
                        "node_budget": SERVE_NODE_BUDGET,
                        "time_budget_ms": TIME_BUDGET_MS},
                       separators=(",", ":"))
            for i in range(max(1, workers))]
