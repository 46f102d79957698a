#!/usr/bin/env python3
"""boxcert benchmark: certify / check / reject latency on named workloads.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --workload row --seed 1 --seconds 14 --trace 1
    python3 perfbench/run.py --smoke

One client drives a closed loop through boxcert's public API, one call at a
time.  Each generated instance yields three operations:

* certify: ``pipeline.certify`` -> ``certificate_to_json`` -> ``canonical_json``
  bytes;
* check: those bytes -> ``json.loads`` -> ``certificate_from_json`` ->
  ``check_certificate``, which must accept;
* reject: the same on a seeded single-field mutation of the bytes, which must
  be rejected (a parse error counts as a rejection and is tallied apart).

Latencies are in calm-core seconds: wall time scaled by the pace of a fixed
reference job timed around each operation (clock.py).  Every claimed side is
compared with the answer the generator knows by construction, and repeated
certificates of one instance must be identical bytes.  An exception, a wrong verdict or a wrong claim fails the operation;
a failed operation ranks above every success in the latency percentiles and
is valued at the whole measured time, so a fix that turns a failure into a
success cannot make a percentile worse.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
wraps boxcert's layer boundaries (see tracing.py) and prints the per-layer
metrics, writing every span to ``perfbench/out/``.  The last line of stdout
is the JSON result; the lines before it are for people.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from json import loads as json_loads  # a global of its own, so the tracer can wrap it
from math import lcm
from pathlib import Path
from time import perf_counter
from typing import Any

import tracing
import workloads as wl
from clock import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

KINDS = ("digest", "gens", "claim-length", "trail-point", "y-point", "reduction-result")
EPS = Fraction(1, 9973)  # a denominator no generated coordinate has
SETUP_RUNS = 11
SETUP_CODE = """
import json, sys, time
inputs = json.loads(sys.stdin.read())
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from boxcert import GeneratorSet, jsonio
for partition, gens in inputs:
    jsonio.partition_from_json(partition)
    GeneratorSet.from_values(gens)
print(time.perf_counter() - start)
"""


class Program:
    """The boxcert modules under test, imported from this checkout's ``src``."""

    def __init__(self) -> None:
        if not (SRC / "boxcert" / "__init__.py").is_file():
            raise ImportError(f"no boxcert package under {SRC}")
        sys.path.insert(0, str(SRC))
        import boxcert
        from boxcert import closure, geometry, jsonio, pipeline, reduction

        if Path(boxcert.__file__).resolve().parent != SRC / "boxcert":
            raise ImportError(f"boxcert came from {boxcert.__file__}, not {SRC}")
        self.GeneratorSet = boxcert.GeneratorSet
        self.closure, self.geometry, self.jsonio = closure, geometry, jsonio
        self.pipeline, self.reduction = pipeline, reduction


@dataclasses.dataclass
class Case:
    index: int
    spec: wl.Spec
    partition: Any
    gens: Any
    data: bytes = b""  # the first certificate's bytes; later ones must match


# --- operations ---------------------------------------------------------------
# Module attributes are looked up at call time so that the tracer's wrappers run.


def certify_op(prog: Program, case: Case):
    cert = prog.pipeline.certify(case.partition, case.gens)
    payload = prog.pipeline.certificate_to_json(cert)
    return cert, prog.jsonio.canonical_json(payload).encode()


def check_op(prog: Program, case: Case, data: bytes):
    cert = prog.pipeline.certificate_from_json(json_loads(data))
    return prog.pipeline.check_certificate(cert, case.partition, case.gens)


def reject_op(prog: Program, case: Case, data: bytes):
    """The verdict on mutated bytes, or None when they did not parse."""
    try:
        cert = prog.pipeline.certificate_from_json(json_loads(data))
    except Exception:
        return None
    return prog.pipeline.check_certificate(cert, case.partition, case.gens)


def mutate(case: Case, rnd: int, seed: int) -> tuple[str, bytes]:
    """One single-field change of the certificate.

    The kind is fixed per instance, so every round rejects the same mix of
    kinds, however many rounds a run makes; the seed and round pick the spot.
    """
    payload = json.loads(case.data)
    rng = random.Random(f"{seed}:{case.index}:{rnd}")
    kind = KINDS[case.index % len(KINDS)]
    if kind == "y-point" and len(payload["y"]["points"]) <= 2:
        kind = "reduction-result"
    if kind == "digest":
        s = payload["partition_sha256"]
        i = rng.randrange(len(s))
        payload["partition_sha256"] = s[:i] + ("0" if s[i] != "0" else "1") + s[i + 1 :]
    elif kind == "gens":
        payload["gens"] = payload["gens"] + [wl.rat(EPS)]
    elif kind == "claim-length":
        payload["claimed_side"]["length"] = wl.rat(Fraction(payload["claimed_side"]["length"]) + 1)
    elif kind == "trail-point":
        # The last step, so that the checker walks the whole trail before it
        # finds the change: a fixed amount of work for every seed.
        step = payload["trail"]["steps"][-1]
        j = rng.randrange(len(step["to"]))
        step["to"][j] = wl.rat(Fraction(step["to"][j]) + EPS)
    elif kind == "y-point":
        pts = payload["y"]["points"]
        j = rng.randrange(1, len(pts) - 1)
        old, length = Fraction(pts[j]), Fraction(payload["y"]["length"])
        pts[j] = wl.rat(old + EPS if old + EPS < length else old - EPS)
    else:
        payload["reduction"]["result"] = wl.rat(Fraction(payload["reduction"]["result"]) + 1)
    return kind, json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


class Tally:
    """Latencies (calm-core seconds) and failures of each operation kind."""

    def __init__(self) -> None:
        self.latency: dict[str, list[float]] = {"certify": [], "check": [], "reject": []}
        self.wall: dict[str, list[float]] = {"certify": [], "check": [], "reject": []}
        self.failed: Counter = Counter()
        self.parse_rejects = 0
        self.reasons: list[str] = []

    def ok(self, kind: str, seconds: float, wall: float) -> None:
        self.latency[kind].append(seconds)
        self.wall[kind].append(wall)

    def fail(self, kind: str, reason: str) -> None:
        self.latency[kind].append(float("inf"))
        self.wall[kind].append(float("inf"))
        self.failed[kind] += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{kind}: {reason}")

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.latency.values())


def visit(prog: Program, case: Case, rnd: int, seed: int, tally: Tally, run) -> None:
    """certify, check and reject one instance, judging each against the oracle.

    ``run(kind, label, fn)`` times one operation: (result, seconds, wall).
    """
    label = case.spec.label
    res, dt, wall = run("certify", label, lambda: certify_op(prog, case))
    problem = ""
    if isinstance(res, Exception):
        problem = f"{label}: {type(res).__name__}: {str(res)[:200]}"
    else:
        cert, data = res
        side = cert.claimed_side
        if side.length != case.spec.length or side.axis not in case.spec.axes:
            problem = (
                f"{label}: claimed axis {side.axis} length {side.length}, expected "
                f"length {case.spec.length} on axis {case.spec.axes}"
            )
        elif case.data and data != case.data:
            problem = f"{label}: certificate bytes differ from the first round"
    if problem:
        for kind in ("certify", "check", "reject"):
            tally.fail(kind, problem if kind == "certify" else f"{label}: no certificate")
        return
    tally.ok("certify", dt, wall)
    case.data = data

    res, dt, wall = run("check", label, lambda: check_op(prog, case, data))
    if isinstance(res, Exception):
        tally.fail("check", f"{label}: {type(res).__name__}: {res}")
    elif not res.ok:
        tally.fail("check", f"{label}: valid certificate rejected: {res.reasons}")
    else:
        tally.ok("check", dt, wall)

    kind, mutated = mutate(case, rnd, seed)
    res, dt, wall = run("reject", label, lambda: reject_op(prog, case, mutated))
    if isinstance(res, Exception):
        tally.fail("reject", f"{label}: {type(res).__name__}: {res}")
    elif res is not None and res.ok:
        tally.fail("reject", f"{label}: {kind} mutation accepted")
    else:
        tally.parse_rejects += res is None
        tally.ok("reject", dt, wall)


def measure(prog: Program, cases: list[Case], seconds: float, seed: int, tracer=None):
    """Closed loop over the pool, in whole rounds, for about ``seconds`` of calm core.

    Whole rounds make every instance count equally in the percentiles.  The
    first round's calm-core duration fixes how many rounds fit, so the sample
    count, and with it the tail's percentile, does not follow the host's
    speed; on a slow host the run takes longer in wall time.  With a tracer,
    each visit is made twice, untraced and then traced, so the two tallies
    pair up and their difference is the tracing overhead.
    """
    plain, traced = Tally(), Tally()
    clock = Clock()

    def run_plain(kind, label, fn):
        return clock.time(fn)

    def run_traced(kind, label, fn):
        res, dt, wall = clock.time(lambda: tracer.op(kind, label, fn))
        tracer.ops[-1][3] = dt / wall if wall else 1.0
        return res, dt, wall

    start = perf_counter()
    rnd, rounds = 0, 1
    while rnd < rounds:
        for case in cases:
            visit(prog, case, rnd, seed, plain, run_plain)
            if tracer is not None:
                tracer.install()
                try:
                    visit(prog, case, rnd, seed, traced, run_traced)
                finally:
                    tracer.restore()
        rnd += 1
        if rnd == 1:
            rounds = max(1, round(seconds / ((perf_counter() - start) * clock.mean_pace)))
    return plain, traced, perf_counter() - start


def percentiles(samples: list[float], whole_run: float) -> tuple[float, float, float]:
    """Median and tail; the tail is the highest percentile with >= 10 samples above.

    Returns (p50, tail, tail percentile).  Failures (inf) take the value of
    the whole measured time.
    """
    xs = sorted(min(x, whole_run) for x in samples)
    i = max(0, len(xs) - 11)
    return statistics.median(xs), xs[i], 100.0 * (i + 1) / len(xs)


def setup_seconds(specs: list[wl.Spec]) -> float:
    """Median time, over fresh interpreters, to import boxcert and parse the inputs."""
    inputs = json.dumps([[s.partition, list(s.gens)] for s in specs])
    times = []
    clock = Clock()
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            input=inputs, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(clock.scaled(float(done.stdout.strip())))
    return statistics.median(times)


# --- exact counts (traced run) ---------------------------------------------------


def derivation_shape(d) -> tuple[int, int, int]:
    """(depth, distinct nodes, nodes once the DAG is written out as a tree)."""
    def kids(node):
        return tuple(getattr(node, f) for f in ("left", "right", "first", "second", "third") if hasattr(node, f))

    order, seen, stack = [], set(), [(d, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((k, False) for k in kids(node) if id(k) not in seen)
    depth: dict[int, int] = {}
    tree: dict[int, int] = {}
    for node in order:
        ks = kids(node)
        depth[id(node)] = 1 + max((depth[id(k)] for k in ks), default=0)
        tree[id(node)] = 1 + sum(tree[id(k)] for k in ks)
    return depth[id(d)], len(order), tree[id(d)]


def exact_counts(prog: Program, cases: list[Case]) -> dict[str, float]:
    """Per-certificate work counts, averaged over the pool, from one untimed pass."""
    seen: dict[str, Any] = {}
    pairs = 0
    g, p = prog.geometry, prog.pipeline
    originals = (g.interiors_disjoint, p.bounded_closure, p.build_graph)

    def disjoint(a, b):
        nonlocal pairs
        pairs += 1
        return originals[0](a, b)

    def closure(*args):
        seen["closure"] = originals[1](*args)
        return seen["closure"]

    def graph(*args):
        seen["graph"] = originals[2](*args)
        return seen["graph"]

    g.interiors_disjoint, p.bounded_closure, p.build_graph = disjoint, closure, graph
    totals: dict[str, float] = defaultdict(float)
    done = 0
    try:
        for case in cases:
            pairs = 0
            try:
                cert, data = certify_op(prog, case)
            except Exception:
                continue  # already a failed certify in the timed loop
            done += 1
            q = lcm(*(x.denominator for x in case.gens.gens if x <= cert.bound))
            depth, distinct, tree = derivation_shape(cert.reduction.derivation)
            kinds = Counter(st.kind for st in cert.reduction.steps)
            row = {
                "geometry.boxes": len(case.partition.boxes),
                "geometry.pair_tests": pairs,
                "closure.elements": len(seen["closure"].elements),
                "closure.scaled_bound": cert.bound.numerator * q // cert.bound.denominator,
                "trailgraph.vertices": len(seen["graph"].vertices),
                "trailgraph.edges": len(seen["graph"].edges),
                "trailgraph.trail_steps": len(cert.trail.steps),
                "trailgraph.y_points": len(cert.y.points),
                "reduction.rewrites.loop": kinds["loop"],
                "reduction.rewrites.sum": kinds["sum"],
                "reduction.rewrites.triple": kinds["triple"],
                "reduction.derivation_depth": depth,
                "closure.derivation_nodes_distinct": distinct,
                "jsonio.derivation_nodes_tree": tree,
                "jsonio.cert_bytes": len(data),
            }
            for name, value in row.items():
                totals[name] += value
    finally:
        g.interiors_disjoint, p.bounded_closure, p.build_graph = originals
    return {name: total / max(done, 1) for name, total in totals.items()}


# --- one run ----------------------------------------------------------------------


INJECTIONS = {
    # Deliberate defects for --smoke: each must show up as failed operations.
    "accept-all": lambda prog: setattr(
        prog.pipeline, "check_certificate", lambda *a: prog.pipeline.CheckResult(ok=True)
    ),
    "reject-all": lambda prog: setattr(
        prog.pipeline, "check_certificate", lambda *a: prog.pipeline.CheckResult(ok=False)
    ),
    "wrong-claim": lambda prog: setattr(
        prog.pipeline, "certify", _wrong_claim(prog.pipeline.certify, prog.pipeline.ClaimedSide)
    ),
    "drift": lambda prog: setattr(prog.jsonio, "canonical_json", _drift(prog.jsonio.canonical_json)),
}


def _wrong_claim(certify, claimed_side):
    def wrong(*args):
        cert = certify(*args)
        side = claimed_side(cert.claimed_side.axis, cert.claimed_side.length + 1)
        return dataclasses.replace(cert, claimed_side=side)

    return wrong


def _drift(canonical_json):
    calls: Counter = Counter()

    def drifting(payload):
        # Each repeat serialization of a certificate differs from the last one.
        if "partition_sha256" not in payload:
            return canonical_json(payload)  # a partition being hashed
        calls[payload["partition_sha256"]] += 1
        return canonical_json(payload) + " " * (calls[payload["partition_sha256"]] % 2)

    return drifting


def load_metric_list(trace: int) -> list[dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def run_once(args) -> int:
    try:
        prog = Program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    metric_list = load_metric_list(args.trace)
    specs = wl.generate(args.workload, args.seed, tiny=args.tiny, pool=args.pool)
    setup_s = setup_seconds(specs)
    cases = [
        Case(i, s, prog.jsonio.partition_from_json(s.partition), prog.GeneratorSet.from_values(s.gens))
        for i, s in enumerate(specs)
    ]
    if args.inject:
        INJECTIONS[args.inject](prog)
    tracer = None
    values: dict[str, float] = {}
    if args.trace:
        values.update(exact_counts(prog, cases))
        tracer = tracing.Tracer(tracing.span_targets(vars(prog), sys.modules[__name__]))
    else:
        try:  # warm-up, untimed; a failure here shows up in the timed loop
            check_op(prog, cases[0], certify_op(prog, cases[0])[1])
        except Exception:
            pass
    plain, traced, elapsed = measure(prog, cases, args.seconds, args.seed, tracer)

    print(f"workload {args.workload} ({wl.WORKLOADS[args.workload].band})  seed {args.seed}  "
          f"pool {len(cases)}  measured {elapsed:.2f} s  trace {args.trace}")
    tallies = [plain, traced] if args.trace else [plain]
    for name, tally in zip(("untraced", "traced"), tallies):
        for kind, xs in tally.latency.items():
            p50, tail, q = percentiles(xs, elapsed)
            wall = percentiles(tally.wall[kind], elapsed)[0]
            print(f"  {name:8} {kind:7} n={len(xs):4d}  p50 {p50:.6f} s  "
                  f"tail p{q:.0f} {tail:.6f} s  (wall p50 {wall:.6f} s)  failed {tally.failed[kind]}")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(sum(t.failed.values()) for t in tallies)
    print(f"  fail_rate {failed / attempted:.6f} ({failed}/{attempted}); "
          f"rejected at parse {plain.parse_rejects} of {len(plain.latency['reject'])}")
    for reason in plain.reasons + traced.reasons:
        print(f"  failure: {reason}")
    certified = [c for c in cases if c.data]
    digest = hashlib.sha256(b"".join(c.data for c in cases)).hexdigest()
    print(f"  cert_sha256 {digest} over {len(certified)} of {len(cases)} instances")

    if args.trace:
        per_op = tracer.per_op()  # a defaultdict: ops without inner spans read as zeros
        for kind, spans in tracing.OP_SPANS.items():
            ops = [per_op[op_id] for op_id, k, _, _ in tracer.ops if k == kind]
            for span, with_self in spans:
                values[f"{kind}.{span}_s"] = statistics.median(o.get(span, 0.0) for o in ops)
                if with_self:
                    values[f"{kind}.{span}.self_s"] = statistics.median(
                        o.get(span + ".self", 0.0) for o in ops
                    )
            total = statistics.median(o[kind] for o in ops)
            shares = sorted(((values[f"{kind}.{span}_s"], span) for span, _ in spans), reverse=True)
            print(f"  {kind} median {total:.6f} s; spans as shares of it: "
                  + ", ".join(f"{span} {t / total:.0%}" for t, span in shares[:7]))
        for kind in ("certify", "check"):
            values[f"trace.overhead.{kind}_s"] = (
                percentiles(traced.latency[kind], elapsed)[0]
                - percentiles(plain.latency[kind], elapsed)[0]
            )
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        print(f"  spans written to {path.relative_to(ROOT)}")
        for name in sorted(values):
            print(f"  {name} {values[name]:.6g}")
    else:
        for kind in ("certify", "check", "reject"):
            p50, tail, _q = percentiles(plain.latency[kind], elapsed)
            values[f"{kind}_p50_s"] = p50
            if kind != "reject":
                values[f"{kind}_tail_s"] = tail
        values["cert_bytes"] = statistics.mean(len(c.data) for c in certified) if certified else 0.0
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["setup_s"] = setup_s
        values["ok_rate"] = 1 - failed / attempted
        for m in metric_list:
            print(f"  {m['name']} {values[m['name']]:.6g} {m['unit']}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_list},
    }
    print(json.dumps(result))
    return 0


# --- smoke test ------------------------------------------------------------------


def smoke() -> int:
    """Every workload once at tiny sizes; every check must fire when provoked."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    def call(*extra: str, seconds: str = "1") -> tuple[dict, str]:
        cmd = [sys.executable, str(HERE / "run.py"), "--seconds", seconds, "--seed", "7", *extra]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            problems.append(f"{' '.join(extra)}: exit {done.returncode}: {done.stderr[-500:]}")
            return {}, ""
        lines = done.stdout.strip().splitlines()
        print(f"  ran {' '.join(extra)}: {lines[-1][:100]}...")
        return json.loads(lines[-1]), done.stdout

    def expect(cond: bool, what: str) -> None:
        if not cond:
            problems.append(what)

    for w in bench["workloads"]:
        name = w["name"]
        for trace, listed in (("0", "end_to_end"), ("1", "per_layer")):
            runs = [call("--workload", name, "--trace", trace, "--tiny") for _ in range(1 + (trace == "1"))]
            (res, out) = runs[0]
            if not res:
                continue
            names = {m["name"] for m in bench[listed]}
            expect(set(res["metrics"]) == names, f"{name} trace {trace}: metric names differ")
            expect(res["correct"] and res["failed"] == 0, f"{name} trace {trace}: failures")
            if trace == "1" and runs[1][0]:
                digest = [line for line in out.splitlines() if "cert_sha256" in line]
                digest2 = [line for line in runs[1][1].splitlines() if "cert_sha256" in line]
                expect(digest == digest2, f"{name}: certificate digest differs between runs")
                counts = [m["name"] for m in bench[listed] if m["unit"] in ("count", "bytes")]
                expect(
                    all(res["metrics"][c] == runs[1][0]["metrics"][c] for c in counts),
                    f"{name}: exact counts differ between runs",
                )
    for inject in INJECTIONS:
        # Long enough for a second round, so that repeat certificates are compared.
        res, _ = call("--workload", "grid", "--trace", "0", "--tiny", "--inject", inject, seconds="3")
        expect(bool(res) and res["failed"] > 0 and not res["correct"], f"injected {inject} not caught")
        if res:
            expect(res["metrics"]["ok_rate"]["value"] < 1, f"injected {inject} missing from ok_rate")
    res, out = call("--workload", "row-deep", "--trace", "0", "--pool", "2")
    expect(bool(res) and res["failed"] > 0, "row-deep: no failure at the serialization depth")
    expect("RecursionError" in out, "row-deep: RecursionError not reported")
    for p in problems:
        print(f"SMOKE FAIL: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny run of every workload and check")
    ap.add_argument("--tiny", action="store_true", help="tiny instances (for --smoke)")
    ap.add_argument("--pool", type=int, default=wl.POOL, help="instances per run")
    ap.add_argument("--inject", choices=sorted(INJECTIONS), help="deliberate defect (for --smoke)")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
