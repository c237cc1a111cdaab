import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from starklab.ball import Ball, Undecided, precision, working_precision
from starklab.verify import (ConfigError, Scenario, certificate_summary,
                             check_congruence_biquadratic,
                             check_norm_identity, check_sign_criterion,
                             run_scenario, sign_criterion_matrix,
                             RubinStarkData)
from starklab.numfld import DatumError


def test_congruence_examples_and_exhaustive():
    assert check_congruence_biquadratic([1, 1, 1, 1]) is True
    assert check_congruence_biquadratic([1, 1, 1, -1]) is False
    # all 16 sign patterns mod 4 and all 256 patterns mod 8: the
    # equivalence with the product condition is asserted inside
    for a in itertools.product((1, -1), repeat=4):
        check_congruence_biquadratic(list(a))
    for a in itertools.product((1, 3, 5, 7), repeat=4):
        check_congruence_biquadratic(list(a))
    with pytest.raises(Exception):
        check_congruence_biquadratic([2, 1, 1, 1])


def test_sign_criterion_matrix_level():
    s, _ = check_sign_criterion([[Ball(2), Ball(0)], [Ball(0), Ball(3)]])
    assert s == 1
    s, _ = check_sign_criterion([[Ball(0), Ball(2)], [Ball(3), Ball(0)]])
    assert s == -1
    with pytest.raises(Undecided):
        check_sign_criterion([[Ball(0, 1)]])
    # invariance under even permutations and sign flips of a row pair
    rng = random.Random(3)
    base = [[Ball(rng.randint(1, 5)) for _ in range(3)] for _ in range(3)]
    s0, _ = check_sign_criterion(base)
    even = [base[1], base[2], base[0]]
    assert check_sign_criterion(even)[0] == s0
    odd = [base[1], base[0], base[2]]
    assert check_sign_criterion(odd)[0] == -s0
    flipped = [[-c for c in base[0]], base[1], base[2]]
    assert check_sign_criterion(flipped)[0] == -s0


def test_sign_criterion_pipeline():
    scn = Scenario({"field": {"type": "quad", "disc": 5},
                    "S": ["inf", 5], "V": ["inf"], "T": [3],
                    "checks": ["sign_criterion"], "bits": 128})
    cert = run_scenario(scn)
    entry = cert["results"][0]
    assert entry["verdict"] == "pass"
    assert entry["witness"]["sign"] in (-1, 1)


def test_scenarios_exit_codes():
    ok = run_scenario(Scenario({
        "field": {"type": "quad", "disc": 5}, "S": ["inf", 5], "V": ["inf"],
        "T": [3], "checks": ["rs_integrality"], "bits": 128}))
    assert ok["exit_code"] == 0
    bad_datum = run_scenario(Scenario({
        "field": {"type": "quad", "disc": 5}, "S": ["inf", 5], "V": ["inf"],
        "T": [5], "checks": ["rs_integrality"]}))
    assert bad_datum["exit_code"] == 2
    h3 = run_scenario(Scenario({
        "field": {"type": "quad", "disc": 5}, "S": ["inf", 5], "V": ["inf"],
        "T": [2], "checks": ["rs_integrality"]}))
    assert h3["exit_code"] == 2 and "(H3)" in h3["datum_error"]
    with pytest.raises(ConfigError):
        Scenario({"checks": ["no_such_check"]})
    with pytest.raises(ConfigError):
        Scenario([1, 2, 3])


def test_check_aliases():
    scn = Scenario({"field": {"type": "Q"}, "S": [], "V": [], "T": [],
                    "checks": ["lemma41", "prop42"],
                    "params": {"p": 2, "m": 2}})
    assert scn.checks == ["norm_identity", "norm_decomposition"]


def test_undecided_is_distinct_and_monotone():
    # at 13 bits the integrality certification cannot resolve; at 128 it
    # passes -- raising precision only resolves undecided, never flips
    low = run_scenario(Scenario({
        "field": {"type": "quad", "disc": 12}, "S": ["inf", 2, 3],
        "V": ["inf"], "T": [5], "checks": ["rs_integrality"], "bits": 13}))
    high = run_scenario(Scenario({
        "field": {"type": "quad", "disc": 12}, "S": ["inf", 2, 3],
        "V": ["inf"], "T": [5], "checks": ["rs_integrality"], "bits": 128}))
    assert high["results"][0]["verdict"] == "pass"
    assert low["results"][0]["verdict"] in ("pass", "undecided")
    if low["results"][0]["verdict"] == "undecided":
        assert low["exit_code"] == 3
        assert low["results"][0].get("limit_radius") is not None


def test_witnesses_reverify():
    from starklab.grpring import AbelianGroup, GroupRingElement
    from starklab.zideal import FiniteGModule
    cert = run_scenario(Scenario({
        "field": {"type": "quad", "disc": -23}, "S": ["inf", 23], "V": [],
        "T": [3], "checks": ["annihilation", "fitting_equality"],
        "bits": 128}))
    ann = next(e for e in cert["results"] if e["check"] == "annihilation")
    assert ann["verdict"] == "pass"
    # recheck from the witness alone: rebuild the module and re-multiply
    g = AbelianGroup((2,))
    module = FiniteGModule(g, ann["witness"]["class_group_orders"],
                           ann["witness"]["action"])
    for row in ann["witness"]["image_hnf"]:
        x = GroupRingElement(g, "int", row)
        for j in range(len(module.orders)):
            e_j = tuple(1 if l == j else 0 for l in range(len(module.orders)))
            assert not any(module.act_group_ring(x, e_j))
    fit = next(e for e in cert["results"] if e["check"] == "fitting_equality")
    assert fit["verdict"] == "pass"
    assert fit["witness"]["image_hnf"] == fit["witness"]["fitting_hnf"]


def test_theorem_gating_recorded():
    cert = run_scenario(Scenario({
        "field": {"type": "quad", "disc": 5}, "S": ["inf", 5], "V": ["inf"],
        "T": [3], "checks": ["fitting_equality"], "bits": 128}))
    assert cert["hypotheses"]["thm1_bound"] is False  # |S| = |V| + 1
    assert cert["results"][0]["verdict"] == "pass"   # check still runs
    cert2 = run_scenario(Scenario({
        "field": {"type": "quad", "disc": 12}, "S": ["inf", 2, 3],
        "V": ["inf"], "T": [5], "checks": ["fitting_equality"],
        "bits": 128}))
    assert cert2["hypotheses"]["thm1_bound"] is True


def test_igc_exponent_two():
    # S large enough for the augmentation-power exponent c = 2
    cert = run_scenario(Scenario({
        "field": {"type": "quad", "disc": 5}, "S": ["inf", 5, 7, 13, 17],
        "V": ["inf"], "T": [3], "checks": ["igc_membership"], "bits": 160}))
    entry = cert["results"][0]
    assert entry["verdict"] == "pass"
    assert entry["exponent"] == 2
    assert cert["exit_code"] == 0


def test_nonintegral_scalar_detected():
    # a synthetic non-integral theta must surface as blocked/fail, not pass:
    # T = [] is rejected earlier by (H3), so check the integrality machinery
    # directly on a scalar with denominator
    from starklab.grpring import AbelianGroup, GroupRingElement
    from starklab.multilin import WedgeElement, image_lattice
    from starklab.multilin import NonIntegralError
    from starklab.zideal import ideal_from_generators
    g = AbelianGroup((2,))
    theta = GroupRingElement(g, "rat", [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(Exception):
        ideal_from_generators([theta])


def test_cli_flows(tmp_path):
    from starklab.cli import main
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({
        "field": {"type": "quad", "disc": 12}, "S": ["inf", 2, 3],
        "V": ["inf"], "T": [5], "checks": ["rs_integrality"],
        "bits": 128}))
    assert main(["verify", str(scn)]) == 0
    out = tmp_path / "report.json"
    assert main(["verify", str(scn), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["exit_code"] == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "field": {"type": "quad", "disc": 5}, "S": ["inf", 5], "V": ["inf"],
        "T": [5], "checks": ["rs_integrality"]}))
    assert main(["verify", str(bad)]) == 2
    assert main(["identity", "--p", "3", "--m", "2"]) == 0
    assert main(["field", "--disc", "-23", "classgroup"]) == 0
    assert main(["sweep", str(tmp_path)]) == 2  # bad.json dominates
    malformed = tmp_path / "broken.json"
    malformed.write_text("{not json")
    assert main(["verify", str(malformed)]) == 2


def test_scenario_parallel_sweep(tmp_path):
    from starklab.cli import main
    for i, D in enumerate([5, 13]):
        (tmp_path / f"s{i}.json").write_text(json.dumps({
            "field": {"type": "quad", "disc": D}, "S": ["inf", D],
            "V": ["inf"], "T": [3], "checks": ["rs_integrality"],
            "bits": 96}))
    assert main(["sweep", str(tmp_path), "--jobs", "2"]) == 0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_reports_files_that_are_not_scenarios(tmp_path, capsys, jobs):
    # a certificate written by `verify --out` and a scenario whose field
    # does not load sit next to good scenarios: each is an error for its
    # own file, the good scenarios still run, and the sweep exits 2
    from starklab.cli import main
    scns = tmp_path / "scenarios"
    scns.mkdir()
    for D in (5, 13):
        (scns / f"s{D}.json").write_text(json.dumps({
            "field": {"type": "quad", "disc": D}, "S": ["inf", D],
            "V": ["inf"], "T": [3], "checks": ["rs_integrality"],
            "bits": 96}))
    (scns / "report.json").write_text(json.dumps({
        "scenario": {}, "field": "Q(sqrt(5))", "bits": 96, "results": [],
        "exit_code": 0}))
    (scns / "seven.json").write_text(json.dumps({
        "field": {"type": "quad", "disc": 7}, "checks": ["rs_integrality"]}))
    (scns / "binary.json").write_bytes(b"\xff\xfe\x00")
    out = tmp_path / "sweep.json"
    assert main(["sweep", str(scns), "--jobs", jobs, "--out", str(out)]) == 2
    records = {os.path.basename(c.get("path", "")) or c["field"]: c
               for c in json.loads(out.read_text())}
    assert set(records) == {"binary.json", "report.json", "seven.json",
                            "Q(sqrt(5))", "Q(sqrt(13))"}
    for name in ("binary.json", "report.json", "seven.json"):
        assert records[name]["exit_code"] == 2
        assert records[name]["load_error"]
    for label in ("Q(sqrt(5))", "Q(sqrt(13))"):
        assert records[label]["exit_code"] == 0
        assert records[label]["results"][0]["verdict"] == "pass"
    printed = capsys.readouterr().out
    assert "report.json] config error: field must be a JSON object" in printed
    assert "seven.json] config error: 7 is not a fundamental" in printed


@pytest.mark.parametrize("spec", [
    {"field": "Q(sqrt(5))"},
    {"field": {"type": "quad"}},
    {"field": {"type": "quad", "disc": "x"}},
    {"field": {"type": "multiquad"}},
    {"field": {"type": "multiquad", "discs": 5}},
    {"field": {"type": "generic"}},
    {"field": {"type": "generic", "modulus": 5, "kernel": 4}},
    {"bits": "many"},
    {"bits": -15},
    {"bits": 0},
    {"bits": 12.5},
    {"checks": "rs_integrality"},
    {"params": [2, 2]},
    {"S": "inf"},
    {"S": ["inf", "five"]},
    {"V": "inf"},
    {"T": 3},
    {"T": ["x"]},
    {"checks": ["norm_identity"], "params": {"p": "x"}},
    {"checks": ["norm_identity"], "params": {"m": 1.5}},
    {"checks": ["acnf"], "params": {"range": 5}},
    {"checks": ["acnf"], "params": {"range": [5]}},
    {"checks": ["acnf"], "params": {"range": [-5, "x"]}},
    {"checks": ["congruence"], "params": {"signs": "1111"}},
    {"checks": ["congruence"], "params": {"signs": [1, 1, "a", 1]}},
])
def test_scenario_input_errors_are_config_errors(spec):
    with pytest.raises(ConfigError):
        Scenario(spec)


def test_precision_floor_is_undecided_with_a_reason(capsys):
    from starklab.ball import PrecisionError
    from starklab.cli import main
    from starklab.lfun import hurwitz_jet
    with pytest.raises(Undecided) as info:
        with working_precision(13):
            hurwitz_jet(Fraction(1, 2), 1)
    assert isinstance(info.value, PrecisionError)
    assert info.value.radius == Fraction(1, 2 ** 13)
    cert = run_scenario(Scenario({
        "field": {"type": "quad", "disc": 12}, "S": ["inf", 2, 3],
        "V": ["inf"], "T": [5], "checks": ["rs_integrality"], "bits": 13}))
    entry = cert["results"][0]
    assert entry["verdict"] == "undecided" and cert["exit_code"] == 3
    assert entry["limit_radius"] is not None
    assert "53 bits" in entry["reason"]
    assert "53 bits" in certificate_summary(cert)
    assert main(["lvalue", "--modulus", "5", "--bits", "13"]) == 3
    assert "53 bits" in capsys.readouterr().err


def test_acnf_miss_at_low_precision_is_undecided():
    # at 64 bits the D = 5 residual contains 0 but its radius is above the
    # 1e-25 tolerance, which stays what it is at 128 bits
    cert = run_scenario(Scenario({
        "checks": ["acnf"], "params": {"range": [-20, 20]}, "bits": 64}))
    entry = cert["results"][0]
    assert entry["verdict"] == "undecided" and cert["exit_code"] == 3
    assert float(entry["limit_radius"]) > 1e-25
    assert "D = 5" in entry["reason"]


CERTIFICATION_UNDER_O = """
from starklab import numfld, verify
from starklab.ball import CertificationError

true_class_number = numfld.class_number
# run_acnf reads class_number through the name verify imported
verify.class_number = numfld.class_number = \
    lambda D: true_class_number(D) + 1
try:
    verify.run_acnf(5, 5)
except CertificationError:
    pass
else:
    raise SystemExit("run_acnf(5, 5) did not raise CertificationError")
cert = verify.run_scenario(verify.Scenario(
    {"checks": ["acnf"], "params": {"range": [5, 5]}}))
entry = cert["results"][0]
if entry["verdict"] != "fail" or cert["exit_code"] != 1:
    raise SystemExit(f"acnf scenario gave {entry}")
if "D = 5" not in entry["witness"]:
    raise SystemExit(f"no witness in {entry}")
"""


def test_certification_gates_hold_under_python_O():
    # asserts vanish under -O; a wrong class number must still fail
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", CERTIFICATION_UNDER_O],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_lvalue_reports_jet_params(tmp_path):
    # the S- and T-Euler factors do not drop N, B and the precision
    from starklab.cli import main
    out = tmp_path / "lvalue.json"
    assert main(["lvalue", "--modulus", "5", "--S", "inf", "5", "--T", "3",
                 "--out", str(out)]) == 0
    params = json.loads(out.read_text())["params"]
    assert params == {"N": 38, "B": 21, "prec": 128}


def _q7_radius(bits):
    cert = run_scenario(Scenario({
        "field": {"type": "Q"}, "S": ["inf", 7], "V": ["inf"], "T": [3],
        "checks": ["rs_integrality"], "bits": bits}))
    entry = cert["results"][0]
    assert entry["verdict"] == "pass"
    return float(entry["max_radius"])


def test_scenario_bits_govern_the_whole_run():
    # the S-unit log matrix and the pairings run at the scenario's bits
    # too, so more bits past the default 128 buy a tighter enclosure
    r160, r256 = _q7_radius(160), _q7_radius(256)
    assert r256 < r160 < 2.0 ** -150


def test_precision_is_restored_after_a_run():
    run_scenario(Scenario({
        "field": {"type": "quad", "disc": 5}, "S": ["inf", 5], "V": ["inf"],
        "T": [3], "checks": ["rs_integrality"], "bits": 80}))
    assert precision() == 128
    with pytest.raises(Undecided), working_precision(200):
        check_sign_criterion([[Ball(0, 1)]])
    assert precision() == 128


def test_cli_bits_overrides_every_scenario(tmp_path):
    from starklab.cli import main
    scns = tmp_path / "scenarios"
    scns.mkdir()
    for D in (5, 13):
        (scns / f"s{D}.json").write_text(json.dumps({
            "field": {"type": "quad", "disc": D}, "S": ["inf", D],
            "V": ["inf"], "T": [3], "checks": ["rs_integrality"],
            "bits": 80}))
    out = tmp_path / "report.json"
    assert main(["verify", str(scns / "s5.json"), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["bits"] == 80
    assert main(["verify", str(scns / "s5.json"), "--bits", "128",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["bits"] == 128
    for jobs in ("1", "2"):
        assert main(["sweep", str(scns), "--bits", "200", "--jobs", jobs,
                     "--out", str(out)]) == 0
        assert [c["bits"] for c in json.loads(out.read_text())] == [200, 200]


def test_cli_rejects_bits_below_one():
    from starklab.cli import main
    with pytest.raises(SystemExit) as info:
        main(["lvalue", "--modulus", "5", "--bits", "0"])
    assert info.value.code == 2
