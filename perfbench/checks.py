"""Independent checks of the program's outputs.

None of these reuse the program's logic: curves are checked for shape,
selections are re-derived from the returned tasks (utilization, area, EDF
and exact RMS response-time tests), cache hits are compared byte for byte
with the miss they reuse, and error lines for their code. Each check returns
a list of problems; empty means the output passed. `self_test()` feeds every
check corrupted input and asserts it is rejected, so a checker that has gone
silent cannot hold ok_share at 1.
"""

import json
import math

STATUSES = {"Exact", "Degraded", "BudgetTruncated", "Infeasible"}
REL_EPS = 1e-9


def parse_curve_csv(text):
    """`isex curve --csv` -> [(area, cycles, speedup)]."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "area,cycles,speedup":
        return None
    return [tuple(float(x) for x in l.split(",")) for l in lines[1:]]


def parse_lift_curve(text):
    """The last (area, cycles, speedup) table that `isex lift` prints."""
    lines = text.splitlines()
    heads = [i for i, l in enumerate(lines) if l.split() == ["area", "cycles",
                                                            "speedup"]]
    if not heads:
        return None
    rows = []
    for l in lines[heads[-1] + 2:]:
        parts = l.split()
        if len(parts) != 3:
            break
        rows.append(tuple(float(x) for x in parts))
    return rows


def check_curve(rows, sw_cycles=None):
    """Monotone, starts at the software point, speedups consistent."""
    if not rows:
        return ["curve: no points"]
    bad = []
    a0, c0, s0 = rows[0]
    if a0 != 0 or s0 != 1.0:
        bad.append(f"curve: first point {rows[0]} is not the software point")
    if sw_cycles is not None and c0 != sw_cycles:
        bad.append(f"curve: starts at {c0} cycles, software is {sw_cycles}")
    for (a, c, _), (a2, c2, _) in zip(rows, rows[1:]):
        if not (a2 > a and c2 < c):
            bad.append(f"curve: not monotone at ({a},{c}) -> ({a2},{c2})")
    for a, c, s in rows:
        if c <= 0 or abs(s - round(c0 / c, 3)) > 0.0011:
            bad.append(f"curve: speedup {s} at ({a},{c}) != {c0}/{c}")
    return bad


def rms_response_ok(tasks):
    """Exact rate-monotonic test by response-time iteration over the
    returned (period, cycles), shortest period first."""
    ts = sorted((t["period"], t["cycles"]) for t in tasks)
    for i, (p, c) in enumerate(ts):
        r = c
        while True:
            nxt = c + sum(math.ceil(r / pj - 1e-9) * cj for pj, cj in ts[:i])
            if nxt > p * (1 + REL_EPS):
                return False
            if nxt <= r:
                break
            r = nxt
    return True


def check_selection(result, request=None):
    """A select `result` object against independent recomputation. With the
    request (inline tasks), each returned task must be one of its configs."""
    bad = []
    if result.get("cmd") != "select":
        return ["select: result is not a select"]
    if result.get("status") not in STATUSES:
        bad.append(f"select: unknown status {result.get('status')!r}")
    tasks = result.get("tasks") or []
    if not tasks:
        return bad + ["select: no tasks"]
    area = sum(t["area"] for t in tasks)
    if result["area_used"] > result["area_budget"] * (1 + REL_EPS) + 1e-9:
        bad.append("select: area_used exceeds area_budget")
    if abs(area - result["area_used"]) > 1e-6 * max(1.0, area):
        bad.append(f"select: area_used {result['area_used']} != sum {area}")
    util = sum(t["cycles"] / t["period"] for t in tasks)
    if abs(util - result["utilization"]) > 1e-9 * max(1.0, util):
        bad.append(f"select: utilization {result['utilization']} != {util}")
    if result["policy"] == "edf":
        if result["schedulable"] != (util <= 1 + REL_EPS):
            bad.append(f"select: EDF schedulable={result['schedulable']} "
                       f"at U={util}")
    elif result["schedulable"] != rms_response_ok(tasks):
        bad.append(f"select: RMS schedulable={result['schedulable']} "
                   "disagrees with response-time analysis")
    if request is not None and "tasks" in request:
        given = {t["name"]: t for t in request["tasks"]}
        for t in tasks:
            g = given.get(t["name"])
            if g is None or g["period"] != t["period"]:
                bad.append(f"select: task {t['name']} not as requested")
                continue
            cfgs = g["configs"]
            j = t["config"]
            if not (0 <= j < len(cfgs) and cfgs[j] == [t["area"], t["cycles"]]):
                bad.append(f"select: task {t['name']} config {j} not in curve")
        if len(tasks) != len(given):
            bad.append("select: task count differs from request")
    return bad


def check_response(kind, request_line, response_line, first_result=None):
    """One serve response against what its request line must produce.
    `kind` is select / repeat / malformed / bad_schema / ping; for a repeat,
    `first_result` is the result of the miss it reuses."""
    try:
        resp = json.loads(response_line)
    except ValueError:
        return ["response: not JSON"]
    try:
        req = json.loads(request_line)
    except ValueError:
        req = None
    want_id = req.get("id") if isinstance(req, dict) else None
    if isinstance(want_id, str) and resp.get("id") != want_id:
        return [f"response: id {resp.get('id')!r}, request {want_id!r}"]
    if kind == "malformed":
        code = (resp.get("error") or {}).get("code")
        return [] if code == "parse_error" else [f"malformed: got {code}"]
    if kind == "bad_schema":
        code = (resp.get("error") or {}).get("code")
        return [] if code == "bad_request" else [f"bad_schema: got {code}"]
    if not resp.get("ok"):
        return [f"{kind}: error {resp.get('error')}"]
    if kind == "ping":
        return [] if resp.get("result") == {"cmd": "ping"} else ["ping: result"]
    bad = check_selection(resp["result"],
                          req if isinstance(req, dict) else None)
    if kind == "repeat":
        if resp.get("cache") != "hit":
            bad.append("repeat: not answered from the cache")
        elif first_result is None or raw_result(response_line) != first_result:
            bad.append("repeat: cache hit differs from the miss it reuses")
    return bad


def raw_result(response_line):
    """The `result` object's exact bytes inside a response line."""
    i = response_line.find('"result":')
    return response_line[i + 9:-1] if i >= 0 else None


def canonical(response_line):
    """A response with its volatile envelope (rid, elapsed_ms, queue_depth)
    stripped: what must repeat exactly between rounds."""
    try:
        d = json.loads(response_line)
    except ValueError:
        return response_line
    for k in ("rid", "elapsed_ms", "queue_depth"):
        d.pop(k, None)
    return json.dumps(d, sort_keys=True)


def disposition(response_line):
    try:
        d = json.loads(response_line)
    except ValueError:
        return "garbled"
    if not d.get("ok"):
        return "error:" + str((d.get("error") or {}).get("code"))
    return d.get("cache", "ok")


# --- self-test ------------------------------------------------------------------

def self_test():
    """Corrupts a known-good curve, selection, hit and response order and
    asserts that every check rejects the corruption. Returns the checks that
    failed to reject (empty = every checker is alive)."""
    silent = []

    def expect(name, problems):
        if not problems:
            silent.append(name)

    curve = [(0.0, 1000.0, 1.0), (1.0, 800.0, 1.25), (2.5, 500.0, 2.0)]
    assert not check_curve(curve, 1000.0), "self-test: good curve rejected"
    expect("curve.monotone", check_curve(
        [curve[0], curve[2], curve[1]]))
    expect("curve.start", check_curve(curve[1:]))
    expect("curve.software", check_curve(curve, 999.0))
    expect("curve.speedup", check_curve(
        [curve[0], (1.0, 800.0, 1.5), curve[2]]))

    req = {"id": "x", "cmd": "select", "policy": "edf",
           "tasks": [{"name": "a", "period": 100, "configs": [[0, 60], [2, 30]]},
                     {"name": "b", "period": 200, "configs": [[0, 80], [1, 50]]}]}
    good = {"cmd": "select", "policy": "edf", "status": "Exact",
            "schedulable": True, "utilization": 30 / 100 + 80 / 200,
            "area_used": 2, "area_budget": 2.5,
            "tasks": [{"name": "a", "period": 100, "config": 1, "area": 2,
                       "cycles": 30},
                      {"name": "b", "period": 200, "config": 0, "area": 0,
                       "cycles": 80}]}
    assert not check_selection(good, req), "self-test: good selection rejected"

    def mutated(**kw):
        d = json.loads(json.dumps(good))
        d.update(kw)
        return d

    expect("select.area_budget", check_selection(mutated(area_budget=1.5), req))
    expect("select.area_used", check_selection(mutated(area_used=1), req))
    expect("select.utilization",
           check_selection(mutated(utilization=0.69), req))
    expect("select.edf", check_selection(mutated(schedulable=False), req))
    expect("select.status", check_selection(mutated(status="Fine"), req))
    bad_cfg = mutated()
    bad_cfg["tasks"][0]["cycles"] = 31
    bad_cfg["utilization"] = 31 / 100 + 80 / 200
    expect("select.config", check_selection(bad_cfg, req))
    rms = mutated(policy="rms")
    rms["tasks"][1]["cycles"] = 150  # R_b = 150 + 2*30 = 210 > 200
    rms["utilization"] = 30 / 100 + 150 / 200
    expect("select.rms", check_selection(rms))

    line = json.dumps(req, separators=(",", ":"))
    resp = ('{"id":"x","rid":1,"ok":true,"cache":"hit","queue_depth":0,'
            '"elapsed_ms":0.1,"nodes":3,"result":'
            + json.dumps(good, separators=(",", ":")) + "}")
    first = raw_result(resp)
    assert not check_response("repeat", line, resp, first), \
        "self-test: good hit rejected"
    expect("hit.bytes", check_response("repeat", line, resp,
                                       first.replace("Exact", "Degraded")))
    expect("hit.cache", check_response(
        "repeat", line, resp.replace('"hit"', '"miss"'), first))
    expect("order.id", check_response(
        "select", line.replace('"x"', '"y"'), resp))
    expect("malformed.code", check_response(
        "malformed", "{", '{"id":null,"ok":false,"error":'
        '{"code":"bad_request","message":""}}'))
    expect("bad_schema.code", check_response(
        "bad_schema", '{"id":"z","cmd":"launch"}',
        '{"id":"z","ok":false,"error":{"code":"parse_error","message":""}}'))
    expect("ping.result", check_response(
        "ping", '{"id":"p","cmd":"ping"}',
        '{"id":"p","ok":true,"result":{"cmd":"pong"}}'))
    return silent
