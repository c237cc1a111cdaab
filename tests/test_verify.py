import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starklab.ball import Ball, Undecided, precision, working_precision
from starklab.verify import (CHECKS, ConfigError, Scenario,
                             certificate_summary, check_norm_identity,
                             check_sign_criterion, run_scenario,
                             RubinStarkData)
from starklab.biquad import BiquadField
from starklab.numfld import QQ, QuadField, RationalField


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


def test_annihilation_fails_on_an_image_outside_the_annihilator(monkeypatch):
    from starklab.grpring import AbelianGroup, GroupRingElement
    from starklab.zideal import FiniteGModule, GIdealLattice, annihilator
    # Cl_{K,S,T} has order 3 here; the unit ideal does not kill it
    monkeypatch.setattr(RubinStarkData, "im_lattice",
                        property(lambda data: GIdealLattice.unit(data.group)))
    cert = run_scenario(Scenario({
        "field": {"type": "quad", "disc": -23}, "S": ["inf", 23], "V": [],
        "T": [3], "checks": ["annihilation"], "bits": 128}))
    entry = cert["results"][0]
    assert entry["verdict"] == "fail" and cert["exit_code"] == 1
    wit = entry["witness"]
    assert wit["image_hnf"] == [[1, 0], [0, 1]]
    # recheck from the witness alone: the named row is an image row, Ann
    # is what the module gives, and the row moves some generator
    g = AbelianGroup((2,))
    module = FiniteGModule(g, wit["class_group_orders"], wit["action"])
    row = wit["image_row_outside"]
    assert row in wit["image_hnf"]
    ann = annihilator(module)
    assert [list(r) for r in ann.basis()] == wit["annihilator_hnf"]
    assert not ann.contains_vector(row)
    x = GroupRingElement(g, "int", row)
    k = len(module.orders)
    assert any(any(module.act_group_ring(
        x, tuple(1 if l == j else 0 for l in range(k)))) for j in range(k))


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


@pytest.mark.parametrize("spec,flags", [
    # Q(i): s_p = 1, and |S| = 2 meets max(|V| + 2, |V| - s_p + 3) = 2
    ({"field": {"type": "quad", "disc": -4}, "S": ["inf", 2], "V": [],
      "T": [17]},
     {"S": ["inf", 2], "V": [], "T": [17], "thm1_bound": True, "p": 2,
      "m": 1, "s_p": 1, "thm2_bound": True, "thm2_required_S": 2}),
    # Q(sqrt 5): |S| = 4 meets the bound 4 ...
    ({"field": {"type": "quad", "disc": 5}, "S": ["inf", 2, 5, 7],
      "V": ["inf"], "T": [3]},
     {"S": ["inf", 2, 5, 7], "V": ["inf"], "T": [3], "thm1_bound": True,
      "p": 2, "m": 1, "s_p": 0, "thm2_bound": True, "thm2_required_S": 4}),
    # ... and |S| = 3 falls short of it
    ({"field": {"type": "quad", "disc": 5}, "S": ["inf", 2, 5],
      "V": ["inf"], "T": [3]},
     {"S": ["inf", 2, 5], "V": ["inf"], "T": [3], "thm1_bound": True,
      "p": 2, "m": 1, "s_p": 0, "thm2_bound": False, "thm2_required_S": 4}),
    # G = (Z/2)^2: (p - 1)(m - 1) = 1 raises the bound to 5
    ({"field": {"type": "multiquad", "discs": [5, 13]},
      "S": ["inf", 5, 13], "V": ["inf"], "T": [3]},
     {"S": ["inf", 5, 13], "V": ["inf"], "T": [3], "thm1_bound": True,
      "p": 2, "m": 2, "s_p": 0, "thm2_bound": False, "thm2_required_S": 5}),
], ids=["D=-4", "D=5,|S|=4", "D=5,|S|=3", "discs=5,13"])
def test_theorem_two_bound_flags(spec, flags):
    # Theorem 2 asks |S| >= max(|V| + 2, |V| - s_p + (p - 1)(m - 1) + 3)
    scn = Scenario(spec)
    scn.validate_datum()
    assert scn.hypothesis_flags() == flags


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
    for D, factors in [(-23, [3]), (-84, [2, 2]), (-3299, [3, 9]),
                       (-4, [1])]:
        cg = tmp_path / f"cg{-D}.json"
        assert main(["field", "--disc", str(D), "classgroup",
                     "--out", str(cg)]) == 0
        assert json.loads(cg.read_text())["invariant_factors"] == factors
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
    # `congruence` is no check: it read no datum
    {"checks": ["congruence"]},
    {"checks": ["congruence"], "params": {"signs": [1, 1, 1, 1]}},
    # a biquadratic field, not one of degree 2 or 8
    {"field": {"type": "multiquad", "discs": [5]}},
    {"field": {"type": "multiquad", "discs": [5, 8, 13]}},
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
            hurwitz_jet(5, [1, 4])
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


def test_acnf_ratio_with_two_integers_is_undecided(monkeypatch):
    # the integer test needs no tolerance, so 64 bits decide [-20, 20]
    scn = Scenario({
        "checks": ["acnf"], "params": {"range": [-20, 20]}, "bits": 64})
    cert = run_scenario(scn)
    assert cert["results"][0]["verdict"] == "pass" and cert["exit_code"] == 0
    # 2 L'(0, chi_5) / log eps_5 = 2; with log eps widened by 1/5 the
    # enclosure of the ratio holds 2 and 3, which no integer test decides
    from starklab import verify
    true_log = verify.fundamental_unit_log
    monkeypatch.setattr(verify, "fundamental_unit_log",
                        lambda D: true_log(D) + Ball(0, Fraction(1, 5)))
    cert = run_scenario(scn)
    entry = cert["results"][0]
    assert entry["verdict"] == "undecided" and cert["exit_code"] == 3
    assert float(entry["limit_radius"]) > 0.5
    assert "D = 5" in entry["reason"]


@pytest.mark.parametrize("rng", [[5, -5], [1, 1]])
def test_acnf_over_a_range_with_no_fundamental_discriminant_is_blocked(rng):
    cert = run_scenario(Scenario({"checks": ["acnf"],
                                  "params": {"range": rng}}))
    entry = cert["results"][0]
    assert entry["verdict"] == "blocked" and cert["exit_code"] == 4
    assert "no fundamental discriminant" in entry["reason"]


def _least_fundamental_past_the_bound(sign):
    from starklab.numfld import MAX_ABS_DISC, is_fundamental_discriminant
    return next(sign * d for d in range(MAX_ABS_DISC + 1, 2 * MAX_ABS_DISC)
                if is_fundamental_discriminant(sign * d))


@pytest.mark.parametrize("sign", [1, -1])
def test_acnf_past_the_desk_bound_raises_before_any_table(sign):
    from starklab.arith import CapacityError
    from starklab.lfun import DirichletChar
    from starklab.verify import run_acnf
    D = _least_fundamental_past_the_bound(sign)
    before = DirichletChar.quadratic.cache_info()
    with pytest.raises(CapacityError, match="desk bound"):
        run_acnf(D, D)
    assert DirichletChar.quadratic.cache_info() == before


@pytest.mark.parametrize("spec", [
    {"checks": ["norm_identity"], "params": {"p": 3, "m": 7}},
    {"checks": ["acnf"], "params": {"range": [-1000003, -1000003]}}])
def test_a_datum_past_a_desk_bound_is_unsupported(spec):
    cert = run_scenario(Scenario(spec))
    entry = cert["results"][0]
    assert entry["verdict"] == "unsupported" and cert["exit_code"] == 0
    assert "desk bound" in entry["reason"]


def test_acnf_decides_every_positive_d_to_500_at_53_bits():
    from starklab.verify import run_acnf
    with working_precision(53):
        summary = run_acnf(5, 500)
    assert summary["positive"] == 153 and summary["negative"] == 0


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
    # chi_5 is even: its leading term sums c_1 over its classes, and the
    # S- and T-Euler factors do not drop their N, B and precision; the
    # trivial character's, -1/2 log 5 (1 - 3), needs no Hurwitz sum
    from starklab.cli import main
    out = tmp_path / "lvalue.json"
    for index, want in (("1", {"N": 20, "B": 28, "prec": 128}),
                        ("0", {"prec": 128})):
        assert main(["lvalue", "--modulus", "5", "--char-index", index,
                     "--S", "inf", "5", "7", "--T", "3",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["params"] == want


@pytest.mark.parametrize("order", ["0", "1"])
def test_cli_order_option_is_gone(order, capsys):
    # the leading term is the only value: argparse rejects --order
    from starklab.cli import main
    with pytest.raises(SystemExit) as info:
        main(["lvalue", "--modulus", "5", "--char-index", "1",
              "--S", "inf", "5", "--order", order])
    assert info.value.code == 2
    assert "unrecognized arguments: --order" in capsys.readouterr().err


def test_cli_lvalue_unresolved_leading_coefficient_is_undecided(
        monkeypatch, capsys):
    from starklab import lfun
    from starklab.cli import main
    monkeypatch.setattr(lfun, "_primitive_leading", lambda chi, prec: (
        Ball(0, Fraction(1, 2 ** 90)), {}))
    assert main(["lvalue", "--modulus", "5", "--char-index", "1",
                 "--S", "inf", "5"]) == 3
    assert capsys.readouterr().err.startswith(
        "undecided: cannot certify the leading coefficient")


def test_scenario_order_key_is_a_config_error_naming_the_removal():
    # an old scenario's order: 2 would silently mean something else
    for order in (0, 1, 2):
        with pytest.raises(ConfigError, match="'order' was removed"):
            Scenario({"field": {"type": "quad", "disc": 5},
                      "S": ["inf", 5], "V": ["inf"], "T": [3],
                      "checks": ["rs_integrality"], "order": order})


# norm_identity needs a prime p: no precision decides p = 4
BLOCKED = {"checks": ["norm_identity"], "params": {"p": 4, "m": 2}}


def test_norm_identity_at_a_composite_p_is_blocked():
    cert = run_scenario(Scenario(BLOCKED))
    entry = cert["results"][0]
    assert entry["verdict"] == "blocked"
    assert "4 is not prime" in entry["reason"]
    # no precision unblocks it, so it does not share undecided's code
    assert cert["exit_code"] == 4


def test_sweep_ranks_blocked_above_undecided(tmp_path):
    from starklab.cli import main
    base = {"field": {"type": "quad", "disc": 5}, "S": ["inf", 5],
            "V": ["inf"], "T": [3], "checks": ["rs_integrality"]}
    (tmp_path / "undecided.json").write_text(json.dumps(dict(base, bits=13)))
    assert main(["sweep", str(tmp_path)]) == 3
    (tmp_path / "blocked.json").write_text(json.dumps(BLOCKED))
    assert main(["verify", str(tmp_path / "blocked.json")]) == 4
    assert main(["sweep", str(tmp_path)]) == 4


@pytest.mark.parametrize("args", [["--T", "9"], ["--T", "15"],
                                  ["--S", "inf", "5", "9"]])
def test_cli_lvalue_rejects_places_that_are_not_primes(args, capsys):
    # LSpec takes its S and T from outside: 9 would be an Euler factor
    from starklab.cli import main
    assert main(["lvalue", "--modulus", "5"] + args) == 2
    assert "must be primes" in capsys.readouterr().err


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


def _count_calls(monkeypatch, module, name, counts, *aliases):
    """Wrap module.name (and the same name in each alias module) so that
    every call adds one to counts[name]."""
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return inner(*args, **kwargs)
    for mod in (module,) + aliases:
        monkeypatch.setattr(mod, name, counted)


def test_one_lattice_and_one_ray_class_per_scenario(monkeypatch):
    from starklab import numfld, verify
    counts = {}
    _count_calls(monkeypatch, numfld, "s_unit_lattice", counts)
    _count_calls(monkeypatch, numfld, "ray_class", counts, verify)
    cert = run_scenario(Scenario({
        "field": {"type": "quad", "disc": 12}, "S": ["inf", 2, 3],
        "V": ["inf"], "T": [5],
        "checks": ["sign_criterion", "rs_integrality", "fitting_equality",
                   "annihilation", "igc_membership"]}))
    assert [e["verdict"] for e in cert["results"]] == \
        ["unsupported", "pass", "pass", "pass", "pass"]
    # one lattice and one ray class, the field's: the s_p flag reads the
    # presentation of Q's ray class, not its module
    assert counts["s_unit_lattice"] == 1
    assert counts["ray_class"] == 1
    # each entry holds its own copy of the same flags, the unsupported
    # sign_criterion's too
    flags = [cert["hypotheses"]] + [e["hypotheses"] for e in cert["results"]]
    assert len(flags) == 6
    assert all(f == flags[0] for f in flags)
    assert len({id(f["S"]) for f in flags}) == len(flags)


def test_a_datum_over_q_presents_its_ray_class_from_its_lattice(monkeypatch):
    # over Q the Galois group is trivial, so no s_p flag is computed, and
    # ray_class reads R_T and the unit dlogs off the datum's own lattice:
    # one residue system at T, and no second presentation
    from starklab import numfld, verify
    counts = {}
    _count_calls(monkeypatch, numfld.ResidueSystem, "__init__", counts)
    _count_calls(monkeypatch, numfld, "q_ray_relations", counts, verify)
    cert = run_scenario(Scenario({
        "field": {"type": "Q"}, "S": ["inf", 7], "V": ["inf"], "T": [3],
        "checks": ["fitting_equality", "annihilation"]}))
    assert [e["verdict"] for e in cert["results"]] == ["pass", "pass"]
    assert counts == {"__init__": 1}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
                max_size=4, unique=True),
       st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 29, 31, 37, 41, 43]),
                max_size=3, unique=True),
       st.sampled_from([2, 3, 5, 7]))
def test_s_p_is_the_p_rank_of_the_ray_class_of_q(S, T, p):
    # the leaders less an F_p-rank, against the invariant factors of the
    # module that ray_class builds from the same presentation
    from starklab.numfld import ray_class, s_unit_lattice
    from starklab.verify import _q_ray_p_rank
    # S and T in a datum's normal form, which both read as given
    S, T = ["inf"] + sorted(S), sorted(q for q in T if q not in S)
    assert _q_ray_p_rank(S, T, p) == sum(
        d % p == 0 for d in ray_class(s_unit_lattice(QQ, S, T)).orders), \
        (S, T, p)


def test_sigma_and_the_t_sublattice_are_built_only_when_read(monkeypatch):
    # |V| = 0: the exact checks read theta, the ray class and the unit
    # residues, never the Galois action on the S-units or the T-sublattice;
    # at V = {2} (2 splits in Q(sqrt -23)) the pairings read both, and each
    # is built once: one `express` per generator and one T-sublattice
    from starklab import numfld
    checks = ["sign_criterion", "rs_integrality", "fitting_equality",
              "annihilation", "igc_membership"]
    for V, S, T, built in (([], ["inf", 2, 3, 23], [5], False),
                           ([2], ["inf", 2, 23], [3], True)):
        rank = numfld.s_unit_lattice(QuadField(-23), S, T).rank
        counts = {}
        with monkeypatch.context() as m:
            _count_calls(m, numfld.SUnitLattice, "express", counts)
            _count_calls(m, numfld, "_t_sublattice", counts)
            cert = run_scenario(Scenario({
                "field": {"type": "quad", "disc": -23}, "S": S, "V": V,
                "T": T, "checks": checks}))
        assert [e["verdict"] for e in cert["results"]] == \
            ["unsupported"] + ["pass"] * 4
        assert counts == ({"express": rank, "_t_sublattice": 1} if built
                          else {})


@pytest.mark.parametrize("field,S", [({"type": "Q"}, ["inf", 5, 7]),
                                     ({"type": "quad", "disc": -23},
                                      ["inf", 23])])
def test_sign_criterion_without_v_places_is_unsupported(monkeypatch,
                                                        field, S):
    # V = []: the log matrix has no columns, and no precision makes it
    # square, so the verdict is not one that asks for more bits; the shape
    # is decided before any log or the T-sublattice is computed
    from starklab import numfld

    def unreachable(self):
        raise AssertionError("built for a matrix that is not square")
    monkeypatch.setattr(numfld.SUnitLattice, "log_matrix", unreachable)
    monkeypatch.setattr(numfld.SUnitLattice, "t_lattice_hnf", unreachable)
    cert = run_scenario(Scenario({"field": field, "S": S, "V": [], "T": [3],
                                  "checks": ["sign_criterion"]}))
    [entry] = cert["results"]
    assert entry["verdict"] == "unsupported"
    assert "not square" in entry["reason"]
    assert cert["exit_code"] != 3


def test_norm_identity_builds_one_hyperplane_set(monkeypatch):
    from starklab import sublat
    built = []

    class CountedHyperplaneSet(sublat.HyperplaneSet):
        def __init__(self, p, m):
            built.append((p, m))
            super().__init__(p, m)
    monkeypatch.setattr(sublat, "HyperplaneSet", CountedHyperplaneSet)
    witness = check_norm_identity(3, 6)
    assert built == [(3, 6)]
    assert witness["proper_subgroups"] == 364
    assert witness["avoiding_count"] == 243
    assert witness["containing_count"] == 121


VERDICTS = {"pass", "fail", "undecided", "blocked", "unsupported"}
# field type -> (field spec, S); T = {3} throughout.  Generic fields stay
# out: a generic-field scenario still raises, and the benchmark's test
# test_crashing_cell_is_a_failed_op_and_the_run_goes_on uses one as its
# crashing op
CELL_FIELDS = {
    "Q": ({"type": "Q"}, ["inf", 5, 7]),
    "real_quad": ({"type": "quad", "disc": 5}, ["inf", 5]),
    "imag_quad": ({"type": "quad", "disc": -23}, ["inf", 23]),
    "real_biquad": ({"type": "multiquad", "discs": [5, 13]},
                    ["inf", 5, 13]),
}
# (H2): V = {inf} needs the infinite place to split completely
CELLS = [pytest.param(name, V, id=f"{name}-V={{{','.join(V)}}}")
         for name in CELL_FIELDS for V in ([], ["inf"])
         if not (name == "imag_quad" and V)]


@pytest.mark.parametrize("check", [c for c in CHECKS if c != "acnf"])
@pytest.mark.parametrize("field,V", CELLS)
def test_every_cell_gives_a_verdict(field, V, check):
    spec, S = CELL_FIELDS[field]
    cert = run_scenario(Scenario({"field": spec, "S": S, "V": V, "T": [3],
                                  "checks": [check], "bits": 96}))
    assert "datum_error" not in cert
    [entry] = cert["results"]
    assert entry["verdict"] in VERDICTS
    if field == "real_biquad" and check in ("fitting_equality",
                                            "annihilation"):
        assert entry["verdict"] == "unsupported"
        assert "ray class groups of composita" in entry["reason"]


RUBIN_CHECKS = ["sign_criterion", "rs_integrality", "fitting_equality",
                "annihilation", "igc_membership"]


@pytest.mark.parametrize("field,S,T", [
    # Z/9 would stand in for the residue field GF(9): a false
    # fitting_equality fail
    ({"type": "Q"}, ["inf", 5], [9]),
    ({"type": "Q"}, ["inf", 5, 9], [7]),
    ({"type": "Q"}, ["inf", 5], [15]),
    ({"type": "Q"}, ["inf", 5], [1]),
    ({"type": "quad", "disc": 5}, ["inf", 5], [9]),
    # S is refused before the hypothesis flags read it
    ({"type": "quad", "disc": 5}, ["inf", 5, 9], [3]),
], ids=["Q-T=9", "Q-S=9", "Q-T=15", "Q-T=1", "Q(sqrt5)-T=9",
        "Q(sqrt5)-S=9"])
def test_places_that_are_not_primes_are_a_datum_error(field, S, T):
    cert = run_scenario(Scenario({"field": field, "S": S, "V": ["inf"],
                                  "T": T, "checks": RUBIN_CHECKS}))
    assert cert["exit_code"] == 2 and cert["results"] == []
    assert "must be primes" in cert["datum_error"]


# (field, S, V, T, datum error): one rule of the datum a row, in the order
# the datum checks them, with the certificate's message in full
DATUM_ERRORS = [
    ({"type": "Q"}, [5], [], [3], "(H1) fails: S omits the infinite place"),
    ({"type": "quad", "disc": 5}, ["inf"], [], [3],
     "(H1) fails: S omits ramified primes [5]"),
    ({"type": "Q"}, ["inf", 3], [], [3], "S and T must be disjoint"),
    ({"type": "quad", "disc": 5}, ["inf", 5], ["inf", 5], [3],
     "(H2) fails: V must be a proper subset of S"),
    ({"type": "quad", "disc": 5}, ["inf", 2, 5], [2], [3],
     "(H2) fails: 2 does not split completely"),
    ({"type": "quad", "disc": -23}, ["inf", 23], [], [],
     "T empty: torsion units survive"),
    ({"type": "Q"}, ["inf", 3], [], [2],
     "(H3) fails: -1 = 1 at every place above T=[2]"),
    # (H3) is one rule on T for every field: under (H1), only -1 can be 1
    # at every place above T, and it is so exactly when T is {2}
    ({"type": "quad", "disc": 5}, ["inf", 5], ["inf"], [2],
     "(H3) fails: -1 = 1 at every place above T=[2]"),
    ({"type": "multiquad", "discs": [5, 13]}, ["inf", 5, 13], ["inf"], [2],
     "(H3) fails: -1 = 1 at every place above T=[2]"),
    # a generic field too, before any check reads its field
    ({"type": "generic", "modulus": 7, "kernel": [6]}, ["inf", 7], [], [2],
     "(H3) fails: -1 = 1 at every place above T=[2]"),
]


@pytest.mark.parametrize("field,S,V,T,message", DATUM_ERRORS,
                         ids=["no-inf", "ramified-missing", "S-meets-T",
                              "V-not-proper", "V-not-split", "quad-T-empty",
                              "H3-Q", "H3-Q(sqrt5)", "H3-multiquad",
                              "H3-generic"])
def test_each_datum_error_keeps_its_message(field, S, V, T, message):
    cert = run_scenario(Scenario({"field": field, "S": S, "V": V, "T": T,
                                  "checks": RUBIN_CHECKS}))
    assert cert["exit_code"] == 2 and cert["results"] == []
    assert cert["datum_error"] == message


def test_rank_two_over_q_solves_the_full_wedge(monkeypatch):
    # V = {inf, 2} in S = {inf, 2, 3}: theta, the leading term of the
    # S-truncated zeta function at its double zero, is not 0, and epsilon
    # is solved from the 2 x 2 log determinant of the S-units
    solved = []
    full_wedge = RubinStarkData._solve_full_wedge

    def counted(self, theta, r):
        solved.append(r)
        return full_wedge(self, theta, r)
    monkeypatch.setattr(RubinStarkData, "_solve_full_wedge", counted)
    scn = Scenario({"field": {"type": "Q"}, "S": ["inf", 2, 3],
                    "V": ["inf", 2], "T": [5], "checks": RUBIN_CHECKS})
    cert = run_scenario(scn)
    assert [e["verdict"] for e in cert["results"]] == \
        ["pass", "pass", "pass", "pass", "unsupported"]
    assert solved == [2]
    data = RubinStarkData(scn.datum)
    assert not data.theta.is_zero()
    assert list(data.epsilon.coeffs) == [(0, 1)]


def test_integrality_witness_reports_the_lattice_saturation_index():
    def witness(field, S):
        cert = run_scenario(Scenario({
            "field": field, "S": S, "V": [], "T": [3],
            "checks": ["rs_integrality"]}))
        entry = cert["results"][0]
        assert entry["verdict"] == "pass"
        return entry["witness"]
    # the compositum lattice is never saturated: its index is not known
    assert witness({"type": "multiquad", "discs": [5, 13]},
                   ["inf", 5, 13])["saturation_index"] is None
    assert witness({"type": "quad", "disc": -23},
                   ["inf", 23])["saturation_index"] == 1


def test_out_of_scope_compositum_is_unsupported_below_the_jet_floor():
    # 13 has two places in Q(sqrt 5, sqrt 8): the lattice is out of scope,
    # which no number of bits changes, so 48 bits do not make it undecided
    cert = run_scenario(Scenario({
        "field": {"type": "multiquad", "discs": [5, 8]},
        "S": ["inf", 2, 5, 13], "V": ["inf"], "T": [3],
        "checks": ["rs_integrality", "igc_membership"], "bits": 48}))
    assert [e["verdict"] for e in cert["results"]] == \
        ["unsupported", "unsupported"]
    assert cert["exit_code"] == 0


def test_theta_vanishes_exactly_when_every_order_exceeds_v():
    # epsilon_{S,T,V} = 0 exactly when r_S(chi) > |V| for every chi (Rubin
    # 1996, section 1): theta's chi-component is the leading term of
    # L_{S,T}(chi^-1, s) at order |V|, and a leading term is never 0
    import pool_digest
    from starklab.lfun import theoretical_order
    counts = {}
    for data in pool_digest.rubin_data():
        datum = data.datum
        real = datum.realization
        vacuous = all(
            theoretical_order(real.dirichlet(chi).inverse(), datum.S)
            > len(datum.V) for chi in real.group.all_characters())
        with working_precision(128):
            assert data.theta.is_zero() == vacuous, (datum.S, datum.V)
        key = (type(datum.field).__name__, vacuous)
        counts[key] = counts.get(key, 0) + 1
    assert counts == {("RationalField", True): 7,
                      ("RationalField", False): 4,
                      ("QuadField", True): 26, ("QuadField", False): 17,
                      ("BiquadField", True): 4, ("BiquadField", False): 8,
                      ("NoneType", True): 3, ("NoneType", False): 7}


def test_a_vacuous_datum_pairs_to_zeros_without_the_galois_action(
        monkeypatch):
    # epsilon = 0 at |V| >= 1: the pairings are the zeros on the |V|-subsets
    # of the T-lattice's rank, as the full route against the dual basis
    # gives them, and neither the action nor the dual values are built for
    # them
    import pool_digest
    from starklab import multilin, numfld
    vacuous = 0
    for data in pool_digest.rubin_data():
        if not isinstance(data.datum.field, (RationalField, QuadField)):
            continue
        with working_precision(128):
            if not data.theta.is_zero():
                continue
            counts = {}
            with monkeypatch.context() as m:
                for cls, name in ((multilin.GLattice, "__init__"),
                                  (multilin.GLattice, "dual_values"),
                                  (numfld.SUnitLattice, "sigma_matrices"),
                                  (RubinStarkData, "t_glattice")):
                    _count_calls(m, cls, name, counts)
                pairings = data.pairings
            assert counts == {}
            oracle = multilin.all_dual_pairings(data.epsilon,
                                                data.t_glattice())
        assert pairings == oracle
        assert all(val.ring == "rat" and val.is_zero()
                   for _F, val in pairings)
        vacuous += 1
    assert vacuous == 33


def _full_system_coords(data, theta):
    """epsilon's lattice coordinates at r = 1 by the full-system route, the
    oracle of `RubinStarkData._solve_degree_one`: `gauss_solve` on every
    row of the log matrix but that of w0, the first place over the first
    v0 of S outside V, with theta's coefficients put at the image of the
    first place over V and taken off at the image of w0."""
    from starklab.ball import gauss_solve
    lat, S, V = data.lattice, data.datum.S, data.datum.V
    v0 = next(v for v in S if v not in V)
    idx1 = lat.place_ranges[V[0]][0]
    idx0 = lat.place_ranges[v0][0]
    n = len(lat.places)
    rhs = [Ball(0) for _ in range(n)]
    for el, coeff in zip(data.group.elements, theta.coeffs):
        c = coeff if isinstance(coeff, Ball) else Ball(coeff)
        perm = lat.place_permutation(el)
        rhs[perm[idx1]] = rhs[perm[idx1]] + c
        rhs[perm[idx0]] = rhs[perm[idx0]] - c
    lam = lat.log_matrix()
    cols = [j for j in range(n) if j != idx0]
    A = [[lam[g][j] for g in range(lat.rank)] for j in cols]
    return gauss_solve(A, [rhs[j] for j in cols])


# r = 1 data of tier-1 whose V is a finite place: w0 is then the infinite
# place, and the ball system of the infinite rows is empty
FINITE_V_DATA = [({"type": "quad", "disc": -23}, ["inf", 2, 23], [2], [3]),
                 ({"type": "quad", "disc": -23}, ["inf", 2, 23], [2], [3, 5]),
                 ({"type": "Q"}, ["inf", 2], [2], [3])]


def test_the_structured_solve_matches_the_full_system_oracle(monkeypatch):
    # every non-vacuous r = 1 datum of the pools and FINITE_V_DATA: each
    # coordinate ball of epsilon overlaps the full-system oracle's, the
    # pairing vectors and im(epsilon) read off the oracle's coordinates are
    # the same, and `_solve_degree_one` calls `gauss_solve` once, on the
    # infinite rows alone: 1 x 1 over Q, 2 x 2 for a real quadratic field,
    # 4 x 4 for the biquadratic compositum, 0 x 0 when V is finite
    import pool_digest
    from starklab import verify
    from starklab.multilin import WedgeElement
    from starklab.grpring import GroupRingElement
    from starklab.zideal import UnsupportedCaseError
    data = [d for d in pool_digest.rubin_data()
            if len(d.datum.V) == 1 and d.datum.field is not None]
    for field, S, V, T in FINITE_V_DATA:
        scn = Scenario({"field": field, "S": S, "V": V, "T": T})
        scn.validate_datum()
        data.append(RubinStarkData(scn.datum))
    solve, solved, sizes = verify.gauss_solve, [], {}

    def recorded(A, b):
        solved.append(len(A))
        return solve(A, b)
    for d in data:
        with working_precision(128):
            try:
                lat = d.lattice
            except UnsupportedCaseError:
                continue
            theta = d.theta
            if theta.is_zero():
                continue
            solved.clear()
            with monkeypatch.context() as m:
                m.setattr(verify, "gauss_solve", recorded)
                eps = d.epsilon
            oracle = _full_system_coords(d, theta)
            for (i,), z in eps.coeffs.items():
                lo, hi = z.coeffs[0].endpoints()
                olo, ohi = oracle[i].endpoints()
                assert lo <= ohi and olo <= hi, (d.datum, i)
            finite_v = d.datum.V != ("inf",)
            expected = 0 if finite_v else len(lat.place_ranges["inf"])
            assert solved == [expected], d.datum
            key = (type(d.datum.field).__name__, finite_v)
            sizes[key] = sizes.get(key, 0) + 1
            if isinstance(d.datum.field, BiquadField):
                continue
            ref = RubinStarkData(d.datum, lattice=lat)
            ref.theta = theta
            ref.epsilon = WedgeElement(d.group, 1, {
                (i,): GroupRingElement.one(d.group, "ball").scale(c)
                for i, c in enumerate(oracle)})
            assert ref.pairing_vectors == d.pairing_vectors
            assert ref.im_lattice.basis() == d.im_lattice.basis()
    assert sizes == {("RationalField", False): 4, ("QuadField", False): 17,
                     ("BiquadField", False): 1, ("QuadField", True): 2,
                     ("RationalField", True): 1}


def test_a_vacuous_compositum_is_still_out_of_scope(monkeypatch):
    # no in-scope datum of a real biquadratic lattice is vacuous at
    # V = {inf}: chi_D(q) = 1 at a q of S off D splits q in Q(sqrt D), and
    # q then has two places.  So theta is made 0 here, and the shortcut
    # still reads the T-lattice's HNF, where the compositum is unsupported
    from starklab import grpring, verify
    monkeypatch.setattr(verify, "stickelberger_element",
                        lambda datum: grpring.GroupRingElement.zero(
                            datum.realization.group, "rat"))
    cert = run_scenario(Scenario({
        "field": {"type": "multiquad", "discs": [5, 13]},
        "S": ["inf", 5, 13], "V": ["inf"], "T": [3],
        "checks": ["rs_integrality"]}))
    [entry] = cert["results"]
    assert entry["verdict"] == "unsupported"
    assert entry["reason"] == \
        "T-unit lattices of composita are out of desk scope"


def test_a_compositum_ray_class_is_refused_before_its_places():
    # 11 has two places in Q(sqrt 5, sqrt 13), so the compositum's lattice
    # is out of scope; the ray class is refused before the lattice is
    # built, and only the checks that build the lattice name 11
    cert = run_scenario(Scenario({
        "field": {"type": "multiquad", "discs": [5, 13]},
        "S": ["inf", 5, 11, 13], "V": ["inf"], "T": [3],
        "checks": ["fitting_equality", "annihilation", "norm_decomposition",
                   "rs_integrality"]}))
    ray = "ray class groups of composita are out of desk scope"
    places = ("11 has 2 places in the compositum; only single-place primes "
              "are supported at desk scale")
    assert [(e["verdict"], e["reason"]) for e in cert["results"]] == \
        [("unsupported", ray)] * 2 + [("unsupported", places)] * 2


def test_norm_decomposition_of_a_generic_field_is_unsupported():
    # a generic field has no field object, so the check refuses it by the
    # compositum's class before it reads any field arithmetic
    cert = run_scenario(Scenario({
        "field": {"type": "generic", "modulus": 5, "kernel": [4]},
        "S": ["inf", 5], "V": ["inf"], "T": [3],
        "checks": ["norm_decomposition"]}))
    assert [(e["verdict"], e["reason"]) for e in cert["results"]] == \
        [("unsupported", "norm decomposition runs on biquadratic composita")]


NORM_IDENTITY_GATES = """
from starklab import sublat, verify
from starklab.ball import CertificationError


def expect_fail(what):
    try:
        verify.check_norm_identity(3, 2)
    except CertificationError:
        pass
    else:
        raise SystemExit(f"{what}: check_norm_identity(3, 2) passed")
    cert = verify.run_scenario(verify.Scenario(
        {"checks": ["norm_identity"], "params": {"p": 3, "m": 2}}))
    verdict = cert["results"][0]["verdict"]
    if (verdict, cert["exit_code"]) != ("fail", 1):
        raise SystemExit(f"{what}: {verdict}, exit {cert['exit_code']}")


# a plane's lanes always hold the identity, at bit 0, and never the unit
# vector at the pivot, at bit `step` (sublat._kernel_lanes)
true_lanes = sublat._kernel_lanes
sublat._kernel_lanes = lambda *args: true_lanes(*args) - 1
expect_fail("a plane short of one member")
sublat._kernel_lanes = lambda suffix, p, step, repunit: \
    true_lanes(suffix, p, step, repunit) - 1 + (1 << step)
expect_fail("one member displaced")
sublat._kernel_lanes = true_lanes
true_normals = sublat.projective_normals
sublat.projective_normals = lambda p, m: true_normals(p, m)[:-1]
expect_fail("one projective normal short")
"""

# the mutants of NORM_IDENTITY_GATES that patch sublat._kernel_lanes
NORM_IDENTITY_MUTANTS = {
    "a plane short of one member":
        lambda true: lambda *args: true(*args) - 1,
    "one member displaced":
        lambda true: lambda suffix, p, step, repunit:
            true(suffix, p, step, repunit) - 1 + (1 << step),
}


def test_broken_norm_identity_fails(monkeypatch, capsys):
    from starklab import sublat
    from starklab.ball import CertificationError
    from starklab.cli import main
    true_lanes = sublat._kernel_lanes
    for what, mutant in NORM_IDENTITY_MUTANTS.items():
        monkeypatch.setattr(sublat, "_kernel_lanes", mutant(true_lanes))
        with pytest.raises(CertificationError):
            check_norm_identity(3, 2)
        cert = run_scenario(Scenario({"checks": ["norm_identity"],
                                      "params": {"p": 3, "m": 2}}))
        assert cert["results"][0]["verdict"] == "fail", what
        assert cert["exit_code"] == 1, what
        assert main(["identity", "--p", "3", "--m", "2"]) == 1, what
        assert "norm-sum identity failed" in capsys.readouterr().err, what


def test_norm_identity_gates_hold_under_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", NORM_IDENTITY_GATES],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# -- Fitt^{|V|}(Sel^tr): the closed form against the minors of presentations

from hypothesis import example
from test_multilin import act_element
from test_zideal import trivial_action

from starklab import hnf, verify
from starklab.grpring import AbelianGroup, GroupRingElement
from starklab.multilin import GLattice
from starklab.numfld import (RubinDatum, class_number,
                             is_fundamental_discriminant, kronecker)
from starklab.verify import field_of, selmer_transpose_fitting
from starklab.zideal import (Presentation, UnsupportedCaseError,
                             fitting_ideal)


def x_glattice(lattice, group):
    """X_{K,S} (coefficient-sum-zero place module) as a GLattice."""
    n = len(lattice.places)
    basis = []
    for i in range(1, n):
        row = [0] * n
        row[i] = 1
        row[0] = -1
        basis.append(row)
    mats = []
    for j in range(group.rank):
        g = tuple(1 if l == j else 0 for l in range(group.rank))
        perm = lattice.place_permutation(g)
        mats.append([[1 if perm[i] == k else 0 for k in range(n)]
                     for i in range(n)])
    return GLattice(group, n, basis, mats)


def glattice_presentation(M):
    """Z[G]-presentation of a G-lattice: generators = Z-basis, relations =
    the kernel of the evaluation map from the free module."""
    group = M.group
    basis = M.basis()
    t = len(basis)
    n = group.order
    rows = [act_element(M, el, b) for b in basis for el in group.elements]
    ker = hnf.kernel(rows, ambient_dim=M.ambient)
    rels = [[GroupRingElement(group, "int", row[i * n:(i + 1) * n])
             for i in range(t)] for row in ker]
    return Presentation(group, t, rels)


def assembled_selmer_presentation(cl_module, d, nV):
    """Presentation of Cl + Z^{d-1}(trivial) + Z[G]^{nV} (free part): Sel^tr
    when each of the d places outside V has one place of K above it."""
    group = cl_module.group
    base = cl_module.standard_presentation()
    k = base.n_generators
    total = k + (d - 1) + nV
    one = GroupRingElement.one(group)
    rels = []
    for row in base.relations:
        rels.append(list(row) + [GroupRingElement.zero(group)] * (total - k))
    for j in range(d - 1):
        for gi in range(group.rank):
            gen = tuple(1 if l == gi else 0 for l in range(group.rank))
            sigma = GroupRingElement.from_element(group, gen)
            row = [GroupRingElement.zero(group)] * total
            row[k + j] = sigma - one
            rels.append(row)
    return Presentation(group, total, rels)


def selmer_minors(data, ray):
    """Fitt^{|V|} of `assembled_selmer_presentation` for the datum."""
    S, V = data.datum.S, data.datum.V
    return fitting_ideal(
        assembled_selmer_presentation(ray, len(S) - len(V), len(V)), len(V))


def shape_checked_data(spec):
    """`RubinStarkData` of a Rubin datum given as a scenario's field, S, V
    and T, with its shape checked but not (H3)."""
    realization, field = field_of(spec["field"])
    datum = RubinDatum.of(realization, field, spec["S"], spec["V"],
                          spec.get("T", []))
    return RubinStarkData(datum)


PLACE_FIELDS = ["Q"] + [D for D in range(-400, 401)
                        if D not in (0, 1) and is_fundamental_discriminant(D)]
PRIMES_BELOW_30 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PLACE_FIELDS),
       st.sets(st.sampled_from(PRIMES_BELOW_30), max_size=4),
       st.integers(0, 31))
@example("Q", {11}, 0b10)           # V = {11}: I_G^(d-1) over G = 1
@example(5, {11}, 0b01)             # 11 splits outside V = {inf}: 0
@example(5, {11}, 0b11)             # V = {inf, 11}: I_G^0 = Z[G]
@example(-4, {3, 5}, 0b01)          # V = {5}, 3 inert, d = 3: I_G^2
def test_selmer_transpose_fitting_at_cl_1_is_the_place_modules_minors(
        D, extra, mask):
    # S = {inf} + the ramified primes + 0-4 primes below 30, V the places
    # of S that split completely picked by the bits of mask (S itself less
    # its last place), and Cl_{K,S,T} = 1: the place module X_{K,S}
    if D == "Q":
        field = {"type": "Q"}
        ramified = []
    else:
        field = {"type": "quad", "disc": D}
        ramified = QuadField(D).ramified_primes()
    realization = field_of(field)[0]
    S = ["inf"] + sorted(set(ramified) | extra)
    splitting = [v for v in S if realization.splits_completely(v)]
    V = [v for i, v in enumerate(splitting) if mask >> i & 1][:len(S) - 1]
    data = shape_checked_data({"field": field, "S": S, "V": V})
    group = data.group
    pres = glattice_presentation(x_glattice(data.lattice, group))
    fit, method = selmer_transpose_fitting(data, trivial_action(group, []))
    assert method == "closed form of Fitt^{|V|}(X_{K,S})"
    assert fit == fitting_ideal(pres, len(V)), (D, S, V)


def test_selmer_transpose_fitting_needs_g_trivial_or_of_prime_order():
    # K = Q(sqrt 5, sqrt 2), G = (Z/2)^2, at Cl_{K,S,T} = 1 and at a Cl of
    # order 2
    data = shape_checked_data({
        "field": {"type": "multiquad", "discs": [5, 8]}, "S": ["inf", 2, 5],
        "V": ["inf"]})
    for cl in ([], [2]):
        with pytest.raises(UnsupportedCaseError, match="prime order"):
            selmer_transpose_fitting(
                data, trivial_action(AbelianGroup((2, 2)), cl))


def _pool_selmer_data():
    """The distinct Rubin data of the pool ops that run fitting_equality
    over Q or a quadratic field, each as a validated `RubinStarkData`."""
    import pool_digest  # noqa: F401  (puts perfbench's modules on the path)
    import workloads
    specs = {}
    for name in workloads.WORKLOADS:
        for _stratum, _n, ops in workloads.pool(name):
            for op in ops:
                spec = op.get("spec", {})
                if "fitting_equality" in spec.get("checks", []) and \
                        spec["field"]["type"] in ("Q", "quad"):
                    datum = {k: spec.get(k, []) for k in ("field", "S", "V",
                                                          "T")}
                    specs.setdefault(workloads.op_key(datum), datum)
    out = []
    for spec in specs.values():
        scn = Scenario(spec)
        scn.validate_datum()
        out.append(RubinStarkData(scn.datum))
    return out


def _splits_outside_v(data):
    lat, V = data.lattice, data.datum.V
    return any(v not in V and len(lat.place_ranges[v]) > 1
               for v in data.datum.S)


def test_selmer_transpose_fitting_is_the_minors_on_the_pool():
    # every pool datum whose fitting_equality reaches Cl_{K,S,T} != 1 with
    # one place of K above each place outside V
    reached = 0
    for data in _pool_selmer_data():
        ray = data.ray
        if ray.order() == 1 or _splits_outside_v(data):
            continue
        fit, method = selmer_transpose_fitting(data, ray)
        assert method == "Cl + trivial-action extension presentation"
        assert fit == selmer_minors(data, ray), data.datum
        reached += 1
    assert reached == 13


IMAG_CLASS_FIELDS = [D for D in range(-400, -2)
                     if is_fundamental_discriminant(D) and class_number(D) > 1]
ODD_PRIMES_BELOW_40 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


@st.composite
def _imag_class_data(draw):
    """(D, S, V, T): an imaginary quadratic field with h > 1; S is {inf},
    the ramified primes, 0-2 inert primes below 30 and, when V = {q}, a
    split prime q below 30; T is one or two odd primes below 40 outside S."""
    D = draw(st.sampled_from(IMAG_CLASS_FIELDS))
    ramified = QuadField(D).ramified_primes()
    inert = [q for q in PRIMES_BELOW_30 if kronecker(D, q) == -1]
    split = [q for q in PRIMES_BELOW_30 if kronecker(D, q) == 1]
    V = draw(st.sampled_from([[]] + [[q] for q in split]))
    S = ["inf"] + sorted(set(ramified) | set(V) | draw(
        st.sets(st.sampled_from(inert), max_size=2) if inert
        else st.just(set())))
    T = sorted(draw(st.sets(st.sampled_from(
        [t for t in ODD_PRIMES_BELOW_40 if t not in S]),
        min_size=1, max_size=2)))
    return D, S, V, T


def _selmer_against_the_minors(D, S, V, T):
    """Asserts that `selmer_transpose_fitting` is the minors' ideal on the
    imaginary quadratic datum, and returns its ray class group."""
    scn = Scenario({"field": {"type": "quad", "disc": D}, "S": S, "V": V,
                    "T": T})
    scn.validate_datum()
    data = RubinStarkData(scn.datum)
    ray = data.ray
    assert not _splits_outside_v(data)
    fit, _method = selmer_transpose_fitting(data, ray)
    assert fit == selmer_minors(data, ray), (D, S, V, T)
    return ray


@settings(max_examples=40, deadline=None)
@given(_imag_class_data())
@example((-84, ["inf", 2, 3, 5, 7], [5], [11]))
def test_selmer_transpose_fitting_is_the_minors_of_imaginary_data(case):
    _selmer_against_the_minors(*case)


def test_selmer_transpose_fitting_is_the_minors_of_non_cyclic_classes():
    assert _selmer_against_the_minors(
        -420, ["inf", 2, 3, 5, 7], [], [13, 17]).orders == [3, 36]
    assert _selmer_against_the_minors(
        -260, ["inf", 2, 5, 13], [], [37]).orders == [2, 18]


# Cl_{Q,S,T} = (Z/5)^x / <-1, 11> has order 2, and V = {inf} leaves d = 1
# place outside V: Fitt^1(Sel^tr) = Fitt^0(Cl) = (2)
Q_WITH_CLASSES = {"field": {"type": "Q"}, "S": ["inf", 11], "V": ["inf"],
                  "T": [5], "checks": ["fitting_equality"]}


def test_q_with_a_nontrivial_class_group_is_cross_checked(monkeypatch):
    [entry] = run_scenario(Scenario(Q_WITH_CLASSES))["results"]
    assert entry["verdict"] == "pass"
    assert entry["witness"]["class_group_orders"] == [2]
    assert entry["witness"]["fitting_hnf"] == [[2]]
    assert entry["witness"]["method"] == \
        "Cl + trivial-action extension presentation"
    # a closed form with I_G^d for I_G^(d-1) reads 0 for (2): the minors
    # of the assembled presentation tell it apart, and the verdict fails
    true_closed = verify.fitting_from_extension
    monkeypatch.setattr(verify, "fitting_from_extension",
                        lambda cl, d: true_closed(cl, d + 1))
    scn = Scenario(Q_WITH_CLASSES)
    scn.validate_datum()
    data = RubinStarkData(scn.datum)
    ray = data.ray
    fit, _method = selmer_transpose_fitting(data, ray)
    assert fit != selmer_minors(data, ray)
    [entry] = run_scenario(Scenario(Q_WITH_CLASSES))["results"]
    assert entry["verdict"] == "fail"


# -- Rubin's S- and T-change rules on im(epsilon), through the pipeline ------

from starklab.zideal import GIdealLattice

CHANGE_FIELDS = [D for D in PLACE_FIELDS if D == "Q" or abs(D) < 100]


@st.composite
def _change_data(draw):
    """(field, S, V, T, q, t) over Q or a quadratic field with |D| < 100.
    S is {inf}, the ramified primes and 0 or 1 more prime below 30; V is
    {inf} for a real quadratic field, and otherwise a split prime below 30
    that S then holds.  T is one odd prime below 30, and q and t two more,
    all three unramified and off S."""
    D = draw(st.sampled_from(CHANGE_FIELDS))
    ram = [] if D == "Q" else QuadField(D).ramified_primes()
    free = [p for p in PRIMES_BELOW_30 if p not in ram]
    if D != "Q" and D > 0:
        V = ["inf"]
    else:
        V = [draw(st.sampled_from(
            [p for p in free if D == "Q" or kronecker(D, p) == 1]))]
    rest = draw(st.permutations([p for p in free if p not in V]))
    k = draw(st.integers(0, 1))
    extra, rest = rest[:k], rest[k:]
    T = next(p for p in rest if p != 2)
    q, t = [p for p in rest if p != T][:2]
    S = ["inf"] + ram + [p for p in V if p != "inf"] + extra
    return D, S, V, [T], q, t


def _im_epsilon(D, S, V, T):
    """(im(epsilon) of the datum at 128 bits, its field realization)."""
    field = {"type": "Q"} if D == "Q" else {"type": "quad", "disc": D}
    scn = Scenario({"field": field, "S": S, "V": V, "T": T})
    scn.validate_datum()
    with working_precision(128):
        return RubinStarkData(scn.datum).im_lattice, scn.realization


def _euler_ideal(realization, q, x):
    """The principal ideal of 1 - x Fr_q^-1 in Z[G], for q unramified."""
    group = realization.group
    frob = tuple(psi(q) for psi in realization.coordinate_characters)
    vec = [0] * group.order
    vec[group.index[group.identity()]] += 1
    vec[group.index[group.inv(frob)]] -= x
    return GIdealLattice.from_vectors(group, [vec])


@settings(max_examples=30, deadline=None)
@example((5, ["inf", 5, 11], ["inf"], [3], 7, 13))  # 11 splits: epsilon = 0
@example((-23, ["inf", 2, 23], [2], [3], 13, 5))
@example(("Q", ["inf", 2], [2], [3], 5, 7))
@given(_change_data())
def test_im_epsilon_follows_rubins_s_and_t_change_rules(data):
    # Rubin 1996, at r = |V| = 1.  S-change: for q unramified and off S and
    # T, eps_{S+q} = (1 - Fr_q^-1) eps_S, and the quotient of the unit
    # lattices is Z-free, so every hom extends and the images are equal.
    # T-change: the (S, T+t)-units have finite index in the (S, T)-units,
    # so only (1 - t Fr_t^-1) im(eps_T) <= im(eps_{T+t}) holds.  A vacuous
    # datum, epsilon = 0, gives 0 on both sides
    D, S, V, T, q, t = data
    base, real = _im_epsilon(D, S, V, T)
    larger_s, _ = _im_epsilon(D, S + [q], V, T)
    assert larger_s == _euler_ideal(real, q, 1).product(base)
    larger_t, _ = _im_epsilon(D, S, V, T + [t])
    assert larger_t.contains(_euler_ideal(real, t, t).product(base))


# -- the class number formula past tier-1's exhaustive range -----------------

def test_acnf_holds_on_a_seeded_sample_of_positive_d_to_5000():
    from starklab.verify import run_acnf
    fundamental = [D for D in range(501, 5001)
                   if is_fundamental_discriminant(D)]
    for D in random.Random(41).sample(fundamental, 24):
        assert run_acnf(D, D)["positive"] == 1, D
