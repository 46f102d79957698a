"""Command-line behavior: exit codes, output formats, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from boxcert import factory, jsonio
from boxcert.cli import main
from boxcert.closure import GeneratorSet, verify_derivation
from boxcert.geometry import Box, Partition, parse_point

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def pinwheel_file(tmp_path):
    path = tmp_path / "pinwheel.json"
    payload = jsonio.partition_to_json(factory.pinwheel_partition(17, 10, 7))
    path.write_text(jsonio.pretty_json(payload))
    return path


@pytest.fixture()
def strip_file(tmp_path):
    path = tmp_path / "strip.json"
    payload = jsonio.partition_to_json(factory.strip_partition(15, 5))
    path.write_text(jsonio.pretty_json(payload))
    return path


def test_validate_ok(capsys, pinwheel_file):
    code, out, _ = run_cli(capsys, "validate", pinwheel_file)
    assert code == 0
    assert out.strip() == "OK: 5 boxes, volume 400"


def test_validate_defects_exit_two(capsys, tmp_path):
    payload = jsonio.partition_to_json(factory.strip_partition(15, 5))
    payload["boxes"][0]["hi"] = ["16", "20"]  # now overlaps its neighbor
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "validate", path)
    assert code == 2
    assert "INVALID" in out
    assert "interior-overlap" in out


def test_validate_gap_exit_two(capsys, tmp_path):
    payload = jsonio.partition_to_json(factory.strip_partition(15, 5))
    del payload["boxes"][1]  # leaves [15, 20] x [0, 20] uncovered
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "validate", path)
    assert code == 2
    assert out.splitlines() == [
        "INVALID: 1 defect(s)",
        "  - gap: cell [15, 20] x [0, 20] is covered by 0 boxes; "
        "the corner counts differ at 4 points",
    ]


def test_validate_malformed_json_exit_one(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", path)
    assert code == 1
    assert "JSON" in err


def test_certify_pinwheel(capsys, pinwheel_file, tmp_path):
    out_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "certify", pinwheel_file, "--gens", "17,10,7", "--out", out_path
    )
    assert code == 0
    assert "side of length 20 along axis 1" in out
    assert "closure({7, 10, 17})" in out
    cert = jsonio.expect_dict(json.loads(out_path.read_text()), "certificate")
    assert cert["claimed_side"] == {"axis": 1, "length": "20"}


def test_certify_strip(capsys, strip_file):
    code, out, _ = run_cli(capsys, "certify", strip_file, "--gens", "15,5")
    assert code == 0
    assert "side of length 20" in out


def test_certify_hypothesis_violation_exit_three(capsys, pinwheel_file):
    code, _, err = run_cli(capsys, "certify", pinwheel_file, "--gens", "4")
    assert code == 3
    assert "hypothesis violated" in err


def test_certify_invalid_partition_exit_two(capsys, tmp_path):
    payload = jsonio.partition_to_json(factory.strip_partition(15, 5))
    payload["boxes"] = payload["boxes"][:1]  # drop a box: volume gap
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "certify", path, "--gens", "15,5")
    assert code == 2
    assert "INVALID" in err


def test_certify_batch_sorted_output(capsys, tmp_path):
    for name, pieces in (("b.json", (15, 5)), ("a.json", (12, 8))):
        payload = jsonio.partition_to_json(factory.strip_partition(*pieces))
        (tmp_path / name).write_text(json.dumps(payload))
    code, out, _ = run_cli(
        capsys,
        "certify",
        tmp_path / "b.json",
        tmp_path / "a.json",
        "--gens",
        "15,5,12,8",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(str(tmp_path / "a.json"))
    assert lines[1].startswith(str(tmp_path / "b.json"))


def test_check_round_trip(capsys, pinwheel_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify", pinwheel_file, "--gens", "17,10,7", "--out", cert_path)
    code, out, _ = run_cli(
        capsys, "check", cert_path, "--partition", pinwheel_file, "--gens", "17,10,7"
    )
    assert code == 0
    assert out.startswith("OK")


def test_certify_and_check_a_600_strip_row(capsys, tmp_path):
    # A row's derivation is a chain as long as the row: nested, it would be
    # far deeper than the recursion limit allows JSON to be written.
    rng = random.Random(600)
    xs = [0]
    for _ in range(600):
        xs.append(xs[-1] + rng.randint(2, 9))
    height = "5/3"
    outer = Box(parse_point((0, 0)), parse_point((xs[-1], height)))
    strips = tuple(
        Box(parse_point((a, 0)), parse_point((b, height))) for a, b in zip(xs, xs[1:])
    )
    part_path, cert_path = tmp_path / "row.json", tmp_path / "cert.json"
    payload = jsonio.partition_to_json(Partition(2, outer, strips))
    part_path.write_text(jsonio.pretty_json(payload))
    code, _, err = run_cli(
        capsys, "certify", part_path, "--gens", "2,3,4,5,6,7,8,9", "--out", cert_path
    )
    assert code == 0, err
    code, out, _ = run_cli(
        capsys, "check", cert_path, "--partition", part_path, "--gens", "2,3,4,5,6,7,8,9"
    )
    assert code == 0
    assert out.startswith("OK")


def test_check_tampered_certificate_exit_two(capsys, pinwheel_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify", pinwheel_file, "--gens", "17,10,7", "--out", cert_path)
    payload = json.loads(cert_path.read_text())
    payload["claimed_side"]["length"] = "19"
    cert_path.write_text(json.dumps(payload))
    code, out, _ = run_cli(
        capsys, "check", cert_path, "--partition", pinwheel_file, "--gens", "17,10,7"
    )
    assert code == 2
    assert "REJECTED" in out


def test_check_rejects_certificate_gens_the_caller_did_not_supply(
    capsys, pinwheel_file, tmp_path
):
    # The closure's cost follows the generators' common denominator, so
    # gens taken from the certificate would let it set the checker's cost.
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify", pinwheel_file, "--gens", "17,10,7", "--out", cert_path)
    payload = json.loads(cert_path.read_text())
    payload["gens"].append("1/10007")
    cert_path.write_text(json.dumps(payload))
    started = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "check", cert_path, "--partition", pinwheel_file, "--gens", "17,10,7"
    )
    assert time.perf_counter() - started < 2.0
    assert code == 2
    assert out.startswith("REJECTED: gens")


def test_check_rejects_exponent_notation_before_parsing_it(
    capsys, pinwheel_file, tmp_path
):
    # "1e3000000" is nine bytes but a three-million-digit integer: parsing
    # it would let an untrusted field set the checker's cost.
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify", pinwheel_file, "--gens", "17,10,7", "--out", cert_path)
    payload = json.loads(cert_path.read_text())
    payload["claimed_side"]["length"] = "1e3000000"
    cert_path.write_text(json.dumps(payload))
    code, out, err = run_cli(
        capsys, "check", cert_path, "--partition", pinwheel_file, "--gens", "17,10,7"
    )
    assert code == 1
    assert out == ""
    assert "'1e3000000'" in err


def test_check_rejects_malformed_audit_content_with_exit_two(
    capsys, pinwheel_file, tmp_path
):
    # The audit fields are compared as written, not parsed: malformed content
    # inside one is a rejected certificate, at that field's stage.
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify", pinwheel_file, "--gens", "17,10,7", "--out", cert_path)
    payload = json.loads(cert_path.read_text())
    payload["y"]["points"][1] = "1e3000000"
    cert_path.write_text(json.dumps(payload))
    code, out, _ = run_cli(
        capsys, "check", cert_path, "--partition", pinwheel_file, "--gens", "17,10,7"
    )
    assert code == 2
    assert out == "REJECTED: projection: recomputed position sequence differs\n"
    code, out, err = run_cli(capsys, "render", pinwheel_file, "--cert", cert_path)
    assert code == 2
    assert out == ""
    assert "projection: recomputed position sequence differs" in err


def test_certify_from_a_chosen_start_corner(capsys, pinwheel_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, err = run_cli(
        capsys, "certify", pinwheel_file, "--gens", "17,10,7",
        "--start-corner", "20,20", "--out", cert_path,
    )
    assert code == 0, err
    cert = json.loads(cert_path.read_text())
    assert cert["trail"]["start"] == ["20", "20"]
    code, out, _ = run_cli(
        capsys, "check", cert_path, "--partition", pinwheel_file, "--gens", "17,10,7"
    )
    assert code == 0
    assert out.startswith("OK")


def test_certify_start_corner_off_the_outer_corners_exits_one(capsys, pinwheel_file):
    code, out, err = run_cli(
        capsys, "certify", pinwheel_file, "--gens", "17,10,7", "--start-corner", "5,5"
    )
    assert code == 1
    assert out == ""
    assert "start (5, 5)" in err


def test_usage_errors_exit_one(capsys, pinwheel_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify", pinwheel_file, "--gens", "17,10,7", "--out", cert_path)
    for args in (("certify", pinwheel_file),
                 ("bogus",),
                 ("check", cert_path, "--partition", pinwheel_file)):
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        assert out == ""
        assert "error:" in err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: boxcert")


def test_closure_output(capsys):
    code, out, _ = run_cli(capsys, "closure", "--gens", "1", "--bound", "5")
    assert code == 0
    assert out.strip() == "1 2 3 4 5"


def test_member_prints_verifiable_derivation(capsys):
    code, out, _ = run_cli(capsys, "member", "--gens", "5,3,7", "--value", "9")
    assert code == 0
    d = jsonio.derivation_from_json(json.loads(out))
    assert verify_derivation(d, GeneratorSet.of(5, 3, 7)) == 9


def test_member_nonmember_exit_five(capsys):
    code, out, _ = run_cli(capsys, "member", "--gens", "2", "--value", "5")
    assert code == 5
    assert out.strip() == "not a member"


def _run_process(*args):
    cmd = [sys.executable, "-m", "boxcert.cli", *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_member_below_the_smallest_generator_prints_no_warning():
    done = _run_process("member", "--gens", "5", "--value", "3")
    assert (done.returncode, done.stdout, done.stderr) == (5, "not a member\n", "")


def test_empty_closure_is_reported_in_one_plain_line():
    done = _run_process("closure", "--gens", "5", "--bound", "3")
    assert done.returncode == 0
    assert done.stderr == (
        "boxcert: warning: bound 3 is below the smallest generator; "
        "the bounded closure is empty\n"
    )


def test_certify_below_the_smallest_generator_prints_no_python_warning(strip_file):
    done = _run_process("certify", strip_file, "--gens", "100")
    assert done.returncode == 3
    assert done.stderr.splitlines() == [
        f"{strip_file}: hypothesis violated: box k=1 has no side in the closure; "
        "extents ('15', '20')",
    ]


def test_member_bad_gens_exit_one(capsys):
    code, _, err = run_cli(capsys, "member", "--gens", "5/0", "--value", "5")
    assert code == 1
    assert err


def test_gen_strip_matches_factory(capsys):
    code, out, _ = run_cli(capsys, "gen", "strip", "15", "5")
    assert code == 0
    assert jsonio.partition_from_json(json.loads(out)) == factory.strip_partition(15, 5)


def test_gen_lift(capsys):
    code, out, _ = run_cli(capsys, "gen", "strip", "15", "5", "--lift", "3,20")
    assert code == 0
    p = jsonio.partition_from_json(json.loads(out))
    assert p.dim == 3
    assert p == factory.lift_product(factory.strip_partition(15, 5), 20, 3)


def test_gen_bad_params_exit_one(capsys):
    code, _, err = run_cli(capsys, "gen", "pinwheel", "7", "10", "7")
    assert code == 1
    assert err


def test_gen_guillotine_deterministic_across_processes(tmp_path):
    cmd = [
        sys.executable, "-m", "boxcert.cli",
        "gen", "guillotine", "--dim", "2", "--depth", "4", "--seed", "42",
    ]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_gen_guillotine_env_seed(capsys, monkeypatch):
    code, with_flag, _ = run_cli(
        capsys, "gen", "guillotine", "--dim", "2", "--depth", "3", "--seed", "9"
    )
    assert code == 0
    monkeypatch.setenv("BOXCERT_SEED", "9")
    code, with_env, _ = run_cli(capsys, "gen", "guillotine", "--dim", "2", "--depth", "3")
    assert code == 0
    assert with_env == with_flag


def test_render_golden_strip(capsys, strip_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify", strip_file, "--gens", "15,5", "--out", cert_path)
    code, out, _ = run_cli(capsys, "render", strip_file, "--cert", cert_path)
    assert code == 0
    assert out == (GOLDEN / "strip.svg").read_text()


def test_render_golden_pinwheel(capsys, pinwheel_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify", pinwheel_file, "--gens", "17,10,7", "--out", cert_path)
    code, out, _ = run_cli(capsys, "render", pinwheel_file, "--cert", cert_path)
    assert code == 0
    assert out == (GOLDEN / "pinwheel.svg").read_text()


def test_render_three_dimensional_exit_one(capsys, tmp_path):
    p = factory.lift_product(factory.strip_partition(15, 5), 20, 3)
    path = tmp_path / "lifted.json"
    path.write_text(json.dumps(jsonio.partition_to_json(p)))
    code, _, err = run_cli(capsys, "render", path)
    assert code == 1
    assert "2D" in err


def test_render_mismatched_certificate_exit_one(capsys, strip_file, pinwheel_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify", pinwheel_file, "--gens", "17,10,7", "--out", cert_path)
    code, _, err = run_cli(capsys, "render", strip_file, "--cert", cert_path)
    assert code == 1
    assert "does not match" in err


def test_render_rejects_a_certificate_that_check_rejects(capsys, pinwheel_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify", pinwheel_file, "--gens", "17,10,7", "--out", cert_path)
    doc = json.loads(cert_path.read_text())
    assert doc["trail"]["steps"][0]["to"][0] == "0"
    doc["trail"]["steps"][0]["to"][0] = "1"  # a forged trail, same partition
    cert_path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "check", cert_path, "--partition", pinwheel_file, "--gens", "17,10,7"
    )
    assert code == 2
    assert "trail: recomputed trail from the recorded start differs" in out
    code, out, err = run_cli(capsys, "render", pinwheel_file, "--cert", cert_path)
    assert code == 2
    assert out == ""
    assert "trail: recomputed trail from the recorded start differs" in err


def test_render_rejects_forged_gens_at_the_cost_of_the_conductor(
    capsys, pinwheel_file, tmp_path
):
    # render --cert checks against the certificate's own gens.  Two more with
    # denominators near 3000 put the grid bound near 1.8 * 10**8 but the
    # closure's conductor at 6002, so the forgery is rejected as before.
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify", pinwheel_file, "--gens", "17,10,7", "--out", cert_path)
    doc = json.loads(cert_path.read_text())
    doc["gens"] = ["1/3011", "1/3001", *doc["gens"]]  # sorted, as certify writes gens
    cert_path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "render", pinwheel_file, "--cert", cert_path)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == (
        f"{cert_path}: REJECTED: assignment: recomputed axis assignment differs"
    )


def test_render_rejects_three_prime_forged_gens_without_a_conductor_wide_mask(
    capsys, pinwheel_file, tmp_path
):
    # Scaled {1/401, 1/409, 1/419} have their conductor at 328,018: a mask
    # that wide took seconds to saturate.  The closure is a dozen runs, and
    # the check that rejects the forgery never asks for the mask.
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify", pinwheel_file, "--gens", "17,10,7", "--out", cert_path)
    doc = json.loads(cert_path.read_text())
    doc["gens"] = ["1/419", "1/409", "1/401", *doc["gens"]]  # sorted, as certify writes gens
    cert_path.write_text(json.dumps(doc))
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "render", pinwheel_file, "--cert", cert_path)
    assert time.perf_counter() - started < 2.0
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == (
        f"{cert_path}: REJECTED: assignment: recomputed axis assignment differs"
    )


def test_member_over_three_prime_denominators_prints_the_pinned_derivation():
    # 1 lies above the conductor 328,018 on the grid 401 * 409 * 419; its
    # derivation walks down into the runs below it.  The digest pins stdout.
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    args = ["member", "--gens", "1/401,1/409,1/419", "--value", "1"]
    done = subprocess.run(
        [sys.executable, "-m", "boxcert", *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == (
        "df4b8f5260f4d4e7c50d74f8fd5a98b53de87aca1fd6a0ee83a1da2f4f2b2b78"
    )


def test_python_dash_m_boxcert_runs_the_cli():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-m", "boxcert", "selftest"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert "selftest: 4/4 passed" in done.stdout


def test_selftest_passes_and_is_deterministic():
    cmd = [sys.executable, "-m", "boxcert.cli", "selftest"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    rows = [line for line in a.stdout.splitlines() if line.split()[-1:] == ["pass"]]
    assert len(rows) == 4
    assert "selftest: 4/4 passed" in a.stdout


def test_selftest_names_the_failing_check_stage(capsys, monkeypatch):
    from boxcert import pipeline

    def reject(cert, p, g):
        return pipeline.CheckResult(ok=False, reasons=("trail: step 0: no such edge (1, 1)",))

    monkeypatch.setattr(pipeline, "check_certificate", reject)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    fails = [line for line in out.splitlines() if "FAIL" in line]
    assert len(fails) == 4
    assert all(line.endswith("FAIL (check: trail)") for line in fails)
    assert "selftest: 0/4 passed" in out


def test_deeply_nested_json_exits_one(capsys, tmp_path, strip_file):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for args in (("check", deep, "--partition", strip_file, "--gens", "15,5"),
                 ("check", deep, "--partition", deep, "--gens", "15,5"),
                 ("validate", deep)):
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        assert out == ""
        assert err == f"{deep}: JSON nested too deeply\n"
