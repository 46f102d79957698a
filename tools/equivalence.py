"""Equivalence run between two checkouts before golden digests are re-pinned.

    python tools/equivalence.py OLD_CHECKOUT [NEW_CHECKOUT]

NEW_CHECKOUT defaults to this one.  Each checkout certifies, in its own
interpreter, the gate-7 corpus (100 guillotine instances, three mutations
each, as ``tests/test_acceptance.py`` makes them) and the four seed-1
benchmark pools (three ``perfbench/run.py`` mutations each), then checks
every certificate it wrote, and every mutation, with its own ``check``.
The run passes when both sides give the same verdicts and, for each
certificate, the same root value and the same multiset of leaves (each leaf
value with the number of times it occurs in the derivation written out as
a tree), whatever shape the two derivation tables have.  It prints the
mean table entries and certificate bytes per family on both sides.
"""
from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path


def leaves(table: list[dict]) -> dict[str, int]:
    """Leaf value -> the number of times it occurs in the derivation tree."""
    times = [0] * len(table)
    times[-1] = 1
    for i in range(len(table) - 1, -1, -1):
        for a in table[i]["args"]:
            times[a] += times[i]
    out: Counter = Counter()
    for entry, n in zip(table, times):
        if entry["op"] == "leaf":
            out[entry["value"]] += n
    return dict(sorted(out.items()))


def survey(checkout: Path) -> list[dict]:
    """Certify, check and mutate the corpus with ``checkout``'s code."""
    sys.path[:0] = [str(checkout / d) for d in ("src", "tests", "perfbench")]
    from boxcert import GeneratorSet, jsonio, pipeline
    import run as bench
    import test_acceptance as gate
    import workloads

    def verdict(payload, p, g):
        try:
            cert = pipeline.certificate_from_json(payload)
        except ValueError as exc:
            return f"parse: {type(exc).__name__}"
        result = pipeline.check_certificate(cert, p, g)
        return "ok" if result.ok else list(result.reasons)

    def record(name, p, g):
        data = jsonio.canonical_json(pipeline.certificate_to_json(pipeline.certify(p, g)))
        payload = json.loads(data)
        table = payload["reduction"]["derivation"]
        return payload, {
            "id": name,
            "verdict": verdict(payload, p, g),
            "root": table[-1]["value"],
            "leaves": leaves(table),
            "entries": len(table),
            "bytes": len(data),
            "mutants": [],
        }

    rows = []
    rng = random.Random(707)
    for i, (p, g) in enumerate(gate._guillotine_suite()[:100]):
        payload, row = record(f"gate7#{i}", p, g)
        for kind in rng.sample(gate._mutation_kinds(payload), 3):
            mutated = copy.deepcopy(payload)
            gate._mutate(mutated, kind, rng)
            row["mutants"].append([kind, verdict(mutated, p, g)])
        rows.append(row)
    for family in ("grid", "coprime", "bigcert", "row"):
        for i, spec in enumerate(workloads.generate(family, 1)):
            p = jsonio.partition_from_json(spec.partition)
            g = GeneratorSet.from_values(spec.gens)
            payload, row = record(f"{family}#{i}", p, g)
            case = bench.Case(i, spec, p, g, jsonio.canonical_json(payload).encode())
            for rnd in range(3):
                kind, data = bench.mutate(case, rnd, 1)
                row["mutants"].append([kind, verdict(json.loads(data), p, g)])
            rows.append(row)
    return rows


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--survey":
        Path(argv[2]).write_text(json.dumps(survey(Path(argv[1]))))
        return 0
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    here = Path(__file__).resolve().parent.parent
    sides = []
    with tempfile.TemporaryDirectory() as tmp:
        for checkout in (Path(argv[0]), Path(argv[1]) if len(argv) == 2 else here):
            out = Path(tmp) / f"side{len(sides)}.json"
            cmd = [sys.executable, __file__, "--survey", str(checkout.resolve()), str(out)]
            subprocess.run(cmd, check=True)
            sides.append(json.loads(out.read_text()))
    old, new = sides
    differ = 0
    sizes: dict[str, list[int]] = defaultdict(lambda: [0] * 5)
    for a, b in zip(old, new, strict=True):
        for key in ("id", "verdict", "root", "leaves", "mutants"):
            if a[key] != b[key]:
                differ += 1
                print(f"{a['id']}: {key} differs: {a[key]!r} vs {b[key]!r}"[:300])
        s = sizes[a["id"].split("#")[0]]
        for k, v in enumerate((1, a["entries"], b["entries"], a["bytes"], b["bytes"])):
            s[k] += v
    for family, (n, e0, e1, b0, b1) in sizes.items():
        print(f"{family}: entries {e0 / n:.1f} -> {e1 / n:.1f}, bytes {b0 / n:.0f} -> {b1 / n:.0f}")
    checks = sum(1 + len(r["mutants"]) for r in new)
    print(f"{len(new)} certificates, {checks} verdicts, {differ} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
