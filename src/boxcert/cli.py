"""Command-line entry point.

Subcommands::

    validate   check a partition file for geometric defects
    certify    run the full certification pipeline on partition files
    check      re-verify a previously written certificate
    closure    list the bounded closure of a generator set
    member     test closure membership and print a derivation
    gen        emit strip / pinwheel / random guillotine partitions
    render     draw a 2D partition (and optional trail) as SVG
    selftest   certify the built-in witness instances and print a table

Exit codes are a stable contract: 0 success; 1 parse or usage errors, and a
partition with more box corner coordinates than the cap; 2 invalid partition
/ rejected certificate; 3 hypothesis violated (some box has no side in the
closure); 4 internal invariant failure; 5 non-member.
All output is byte-deterministic for fixed inputs, flags, and seeds; the
``BOXCERT_SEED`` environment variable overrides default seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import factory, jsonio, pipeline
from .closure import GeneratorSet, bounded_closure, membership
from .errors import HypothesisViolated, RenderUnsupported, SoundnessError, TooManyCorners
from .geometry import Partition, validate_partition
from .kernel import format_rat, parse_rat
from .svg import RenderSpec, render_svg

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_HYPOTHESIS = 3
EXIT_INTERNAL = 4
EXIT_NONMEMBER = 5


class _CliError(Exception):
    """Usage or input error that should terminate with a message and code."""

    def __init__(self, message: str, code: int = EXIT_PARSE) -> None:
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as :class:`_CliError` (exit 1), not argparse's 2."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        raise _CliError(f"{self.prog}: error: {message}")


def _parse_rat_arg(text: str, what: str) -> Fraction:
    try:
        return parse_rat(text)
    except ValueError as exc:
        raise _CliError(f"bad {what} {text!r}: {exc}") from exc


def _parse_gens_arg(text: str) -> GeneratorSet:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise _CliError("--gens needs at least one value")
    try:
        return GeneratorSet.of(*[_parse_rat_arg(p, "generator") for p in parts])
    except ValueError as exc:
        raise _CliError(f"bad generator set: {exc}") from exc


def _parse_lift_arg(text: str) -> tuple[int, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _CliError(f"--lift expects N,L (e.g. 3,20), got {text!r}")
    try:
        n = int(parts[0])
    except ValueError as exc:
        raise _CliError(f"bad --lift dimension {parts[0]!r}") from exc
    return n, _parse_rat_arg(parts[1], "--lift length")


def _load_json_file(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path}: malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise _CliError(f"{path}: JSON nested too deeply") from exc


def _load_partition(path: str) -> Partition:
    try:
        return jsonio.partition_from_json(_load_json_file(path))
    except ValueError as exc:
        raise _CliError(f"{path}: {exc}") from exc


def _load_certificate(path: str) -> pipeline.Certificate:
    try:
        return pipeline.certificate_from_json(_load_json_file(path))
    except ValueError as exc:
        raise _CliError(f"{path}: {exc}") from exc


def _default_seed() -> int:
    raw = os.environ.get("BOXCERT_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise _CliError(f"BOXCERT_SEED must be an integer, got {raw!r}") from exc


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------- validate


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        report = validate_partition(_load_partition(args.file))
    except TooManyCorners as exc:
        raise _CliError(f"{args.file}: {exc}") from exc
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_INVALID


# ----------------------------------------------------------------- certify


def _certify_one(path: str, gens: GeneratorSet, prefix: str, out: Optional[str]) -> int:
    """Certify one file, write its lines and its ``out`` file; returns its exit code."""
    try:
        p = _load_partition(path)
    except _CliError as exc:
        sys.stderr.write(f"{exc}\n")
        return exc.code
    try:
        cert = pipeline.certify(p, gens)
    except pipeline.PartitionInvalid as exc:
        sys.stderr.write(f"{path}: {exc.report.summary()}\n")
        return EXIT_INVALID
    except HypothesisViolated as exc:
        sys.stderr.write(f"{path}: hypothesis violated: {exc}\n")
        return EXIT_HYPOTHESIS
    except SoundnessError as exc:
        stage = type(exc).__name__
        sys.stderr.write(f"{path}: internal invariant [{stage}]: {exc}\n")
        return EXIT_INTERNAL
    except ValueError as exc:
        sys.stderr.write(f"{path}: {exc}\n")
        return EXIT_PARSE
    side = cert.claimed_side
    sys.stdout.write(
        f"{prefix}side of length {format_rat(side.length)} along axis {side.axis} "
        f"∈ closure({cert.gens})\n"
    )
    if out:
        _write_text(out, jsonio.pretty_json(pipeline.certificate_to_json(cert)))
    return EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    gens = _parse_gens_arg(args.gens)
    if args.out and len(args.files) != 1:
        raise _CliError("--out requires exactly one input file")
    exit_code = EXIT_OK
    for path in sorted(args.files):
        prefix = f"{path}: " if len(args.files) > 1 else ""
        code = _certify_one(path, gens, prefix, args.out)
        if exit_code == EXIT_OK:
            exit_code = code
    return exit_code


# ------------------------------------------------------------------- check


def _cmd_check(args: argparse.Namespace) -> int:
    cert = _load_certificate(args.cert)
    p = _load_partition(args.partition)
    gens = _parse_gens_arg(args.gens)
    result = pipeline.check_certificate(cert, p, gens)
    if result.ok:
        side = cert.claimed_side
        print(
            f"OK: side of length {format_rat(side.length)} along axis "
            f"{side.axis} verified"
        )
        return EXIT_OK
    for reason in result.reasons:
        print(f"REJECTED: {reason}")
    return EXIT_INVALID


# ----------------------------------------------------------- closure/member


def _cmd_closure(args: argparse.Namespace) -> int:
    gens = _parse_gens_arg(args.gens)
    bound = _parse_rat_arg(args.bound, "--bound")
    if bound < min(gens.gens):
        print(
            f"boxcert: warning: bound {format_rat(bound)} is below the smallest "
            "generator; the bounded closure is empty",
            file=sys.stderr,
        )
    closure = bounded_closure(gens, bound)
    print(" ".join(format_rat(v) for v in closure.sorted_elements()))
    return EXIT_OK


def _cmd_member(args: argparse.Namespace) -> int:
    gens = _parse_gens_arg(args.gens)
    value = _parse_rat_arg(args.value, "--value")
    try:
        derivation = membership(gens, value)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    if derivation is None:
        print("not a member")
        return EXIT_NONMEMBER
    sys.stdout.write(jsonio.pretty_json(jsonio.derivation_to_json(derivation)))
    return EXIT_OK


# --------------------------------------------------------------------- gen


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        if args.kind == "strip":
            p = factory.strip_partition(
                _parse_rat_arg(args.x, "x"), _parse_rat_arg(args.y, "y")
            )
        elif args.kind == "pinwheel":
            p = factory.pinwheel_partition(
                _parse_rat_arg(args.x, "x"),
                _parse_rat_arg(args.y, "y"),
                _parse_rat_arg(args.z, "z"),
            )
        else:  # guillotine
            seed = args.seed if args.seed is not None else _default_seed()
            p = factory.random_guillotine(
                args.dim, args.depth, seed, coord_denom_bound=args.denom_bound
            )
        if args.lift:
            n, length = _parse_lift_arg(args.lift)
            p = factory.lift_product(p, length, n)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    _write_text(args.out, jsonio.pretty_json(jsonio.partition_to_json(p)))
    return EXIT_OK


# ------------------------------------------------------------------ render


def _cmd_render(args: argparse.Namespace) -> int:
    p = _load_partition(args.file)
    cert = None
    if args.cert:
        cert = _load_certificate(args.cert)
        if cert.partition_sha256 != jsonio.partition_digest(p):
            raise _CliError(f"{args.cert}: certificate does not match {args.file}")
        result = pipeline.check_certificate(cert, p, cert.gens)
        if not result.ok:
            raise _CliError(
                "\n".join(f"{args.cert}: REJECTED: {r}" for r in result.reasons),
                EXIT_INVALID,
            )
    try:
        spec = RenderSpec(
            scale=args.scale, show_trail=not args.no_trail, show_labels=args.labels
        )
        text = render_svg(p, cert, spec)
    except (RenderUnsupported, ValueError) as exc:
        raise _CliError(str(exc)) from exc
    _write_text(args.out, text)
    return EXIT_OK


# ---------------------------------------------------------------- selftest


def _selftest_cases() -> list[tuple[str, Partition, GeneratorSet]]:
    strip = factory.strip_partition(15, 5)
    pin = factory.pinwheel_partition(17, 10, 7)
    strip_gens = GeneratorSet.of(15, 5)
    pin_gens = GeneratorSet.of(17, 10, 7)
    return [
        ("strip(15,5)", strip, strip_gens),
        ("pinwheel(17,10,7)", pin, pin_gens),
        ("strip(15,5) x [0,20]", factory.lift_product(strip, 20, 3), strip_gens),
        ("pinwheel(17,10,7) x [0,20]", factory.lift_product(pin, 20, 3), pin_gens),
    ]


def _cmd_selftest(_args: argparse.Namespace) -> int:
    rows = []
    failures = 0
    for name, p, gens in _selftest_cases():
        try:
            cert = pipeline.certify(p, gens)
            # Round-trip through JSON and re-check, exactly as CI would.
            reparsed = pipeline.certificate_from_json(
                json.loads(jsonio.canonical_json(pipeline.certificate_to_json(cert)))
            )
            result = pipeline.check_certificate(reparsed, p, gens)
            if result.ok:
                rows.append((name, str(cert.claimed_side.axis),
                             format_rat(cert.claimed_side.length), "pass"))
            else:
                failures += 1
                stage = result.reasons[0].split(":", 1)[0] if result.reasons else "?"
                rows.append((name, "-", "-", f"FAIL (check: {stage})"))
        except Exception as exc:  # report, never crash the table
            failures += 1
            rows.append((name, "-", "-", f"FAIL ({type(exc).__name__})"))
    header = ("instance", "axis", "length", "status")
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(4)
    ]
    for row in (header, *rows):
        print("  ".join(col.ljust(widths[i]) for i, col in enumerate(row)).rstrip())
    print(f"selftest: {len(rows) - failures}/{len(rows)} passed")
    return EXIT_OK if failures == 0 else EXIT_PARSE


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boxcert",
        description="Certify that box partitions force an outer side "
        "reachable from the side lengths by x+y and x+y+z-2*min(x,y,z).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a partition file")
    p_val.add_argument("file")
    p_val.set_defaults(func=_cmd_validate)

    p_cert = sub.add_parser("certify", help="certify partition files")
    p_cert.add_argument("files", nargs="+", metavar="file")
    p_cert.add_argument("--gens", required=True, help="comma-separated rationals")
    p_cert.add_argument("--out", help="write the certificate JSON here (single file)")
    p_cert.set_defaults(func=_cmd_certify)

    p_chk = sub.add_parser("check", help="re-verify a certificate")
    p_chk.add_argument("cert")
    p_chk.add_argument("--partition", required=True)
    p_chk.add_argument("--gens", required=True, help="the generators to check against")
    p_chk.set_defaults(func=_cmd_check)

    p_clo = sub.add_parser("closure", help="list a bounded closure")
    p_clo.add_argument("--gens", required=True)
    p_clo.add_argument("--bound", required=True)
    p_clo.set_defaults(func=_cmd_closure)

    p_mem = sub.add_parser("member", help="closure membership with derivation")
    p_mem.add_argument("--gens", required=True)
    p_mem.add_argument("--value", required=True)
    p_mem.set_defaults(func=_cmd_member)

    p_gen = sub.add_parser("gen", help="generate partition files")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    g_strip = gen_sub.add_parser("strip", help="two rectangles side by side")
    g_strip.add_argument("x")
    g_strip.add_argument("y")
    g_pin = gen_sub.add_parser("pinwheel", help="five rectangles around a center")
    g_pin.add_argument("x")
    g_pin.add_argument("y")
    g_pin.add_argument("z")
    g_guil = gen_sub.add_parser("guillotine", help="random recursive cuts")
    g_guil.add_argument("--dim", type=int, default=2)
    g_guil.add_argument("--depth", type=int, default=4)
    g_guil.add_argument("--seed", type=int, help="default: BOXCERT_SEED or 0")
    g_guil.add_argument("--denom-bound", type=int, default=6)
    for g in (g_strip, g_pin, g_guil):
        g.add_argument("--lift", help="N,L: extend to dimension N by [0,L] factors")
        g.add_argument("--out", help="output path (default: stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    p_ren = sub.add_parser("render", help="render a 2D partition as SVG")
    p_ren.add_argument("file")
    p_ren.add_argument("--cert", help="overlay the trail from this certificate")
    p_ren.add_argument("--scale", type=int, default=20, help="pixels per unit")
    p_ren.add_argument("--labels", action="store_true", help="draw box indices")
    p_ren.add_argument("--no-trail", action="store_true", help="skip the trail overlay")
    p_ren.add_argument("--out", help="output path (default: stdout)")
    p_ren.set_defaults(func=_cmd_render)

    p_self = sub.add_parser("selftest", help="certify the built-in witnesses")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
