"""Smoke tests of the command line: every subcommand once, a complex
character's leading term as {re, im} balls at every order, exit code 2 for
malformed places and fields, and a sweep that goes on past a scenario that
raises and past a file whose field is beyond a desk bound."""

import json
from fractions import Fraction

import pytest

from starklab.cli import main

# a generic field has no S-unit lattice yet, so its datum checks raise
# AttributeError out of run_scenario; T = {3} passes (H3), which T = {2}
# would fail before any check ran
CRASHING = {"field": {"type": "generic", "modulus": 7, "kernel": [6]},
            "S": ["inf", 7], "T": [3], "checks": ["rs_integrality"]}
GOOD = {"checks": ["norm_identity"], "params": {"p": 2, "m": 2}}


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    ["identity", "--p", "2", "--m", "2"],
    ["lvalue", "--modulus", "5", "--S", "inf", "5"],
    ["stickelberger", "--field", "-23", "--S", "inf", "23", "--T", "3"],
    ["field", "--disc", "-23", "classgroup"],
    ["field", "--disc", "5", "unit"],
], ids=lambda argv: argv[0])
def test_every_subcommand_runs(capsys, argv):
    code, out, _err = run(capsys, *argv)
    assert code == 0 and out


def test_verify_a_scenario_file(capsys, tmp_path):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(GOOD))
    code, out, _err = run(capsys, "verify", str(path))
    assert code == 0 and out.strip() == "[Q] norm_identity: PASS"


def _ends(ball):
    """The endpoints of a {mid, rad} ball of the JSON, as Fractions."""
    mid, rad = Fraction(ball["mid"]), Fraction(ball["rad"])
    return mid - rad, mid + rad


def test_a_complex_leading_term_is_re_and_im_balls_at_every_order(capsys):
    # the odd character of order 6 mod 7 vanishes to order 0 with
    # S = {inf, 7}: its leading term -B_{1,chi} = 2/7 + 4/7 zeta_6 is
    # 4/7 + (2 sqrt 3 / 7) i, a complex ball; with 29 in S, where it is 1,
    # it is of order 1, a complex ball too
    code, out, _err = run(capsys, "lvalue", "--modulus", "7", "--kernel",
                          "--char-index", "1", "--S", "inf", "7")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 0 and set(report["value"]) == {"re", "im"}
    lo, hi = _ends(report["value"]["re"])
    assert lo <= Fraction(4, 7) <= hi
    # lo <= 2 sqrt 3 / 7 <= hi, for 0 < lo, squared
    lo, hi = _ends(report["value"]["im"])
    assert 0 < lo and (7 * lo / 2) ** 2 <= 3 <= (7 * hi / 2) ** 2
    code, out, _err = run(capsys, "lvalue", "--modulus", "7", "--kernel",
                          "--char-index", "1", "--S", "inf", "7", "29")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 1 and set(report["value"]) == {"re", "im"}
    assert set(report["value"]["re"]) == {"mid", "rad"}


def test_every_spelling_of_the_infinite_place_is_accepted(capsys):
    outs = {run(capsys, "lvalue", "--modulus", "5", "--S", inf, "5")
            for inf in ("inf", "oo", "infinity")}
    assert len(outs) == 1 and next(iter(outs))[0] == 0


@pytest.mark.parametrize("argv", [
    ["lvalue", "--modulus", "5", "--S", "inf", "5", "1.5"],
    ["lvalue", "--modulus", "5", "--S", "inf", "x"],
    ["stickelberger", "--field", "5", "--S", "inf", "5", "x"],
    ["stickelberger", "--field", "5", "--S", "inf", "5", "--V", "y"],
    ["stickelberger", "--field", "5,x", "--S", "inf", "5"],
    ["stickelberger", "--field", "x", "--S", "inf", "5"],
])
def test_malformed_places_and_fields_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_scenario_that_raises_does_not_sink_the_sweep(capsys, tmp_path,
                                                        jobs):
    (tmp_path / "a_crash.json").write_text(json.dumps(CRASHING))
    (tmp_path / "b_good.json").write_text(json.dumps(GOOD))
    report = tmp_path / "report.out"
    code, out, _err = run(capsys, "sweep", str(tmp_path), "--jobs", jobs,
                          "--out", str(report))
    assert code == 5
    crash, good = out.strip().split("\n")
    assert crash.startswith(f"[{tmp_path / 'a_crash.json'}] error: "
                            "AttributeError: ")
    assert good == "[Q] norm_identity: PASS"
    records = json.loads(report.read_text())
    assert records[0]["exit_code"] == 5
    assert "Traceback" in records[0]["traceback"]
    assert records[1]["exit_code"] == 0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_field_past_the_desk_bound_does_not_sink_the_sweep(capsys, tmp_path,
                                                             jobs):
    # QuadField raises CapacityError while the scenario is built: that file
    # is a config error with exit code 2, and the other files still run
    over = {"field": {"type": "quad", "disc": 1000005}, "S": ["inf", 5],
            "checks": ["rs_integrality"]}
    valid = {"field": {"type": "quad", "disc": -23}, "S": ["inf", 23],
             "T": [3], "checks": ["annihilation"]}
    (tmp_path / "a_good.json").write_text(json.dumps(GOOD))
    (tmp_path / "b_over.json").write_text(json.dumps(over))
    (tmp_path / "c_valid.json").write_text(json.dumps(valid))
    report = tmp_path / "report.out"
    code, out, err = run(capsys, "sweep", str(tmp_path), "--jobs", jobs,
                         "--out", str(report))
    assert code == 2 and err == ""
    assert out.strip().split("\n") == [
        "[Q] norm_identity: PASS",
        f"[{tmp_path / 'b_over.json'}] config error: |D| = 1000005 "
        f"exceeds the desk bound",
        "[Q(sqrt(-23))] annihilation: PASS"]
    records = json.loads(report.read_text())
    assert [r["exit_code"] for r in records] == [0, 2, 0]
    assert [e["verdict"] for r in (records[0], records[2])
            for e in r["results"]] == ["pass", "pass"]
