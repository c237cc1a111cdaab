import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from starklab.ball import Ball, Undecided, precision, working_precision
from starklab.verify import (CHECKS, ConfigError, Scenario,
                             certificate_summary, check_norm_identity,
                             check_sign_criterion, run_scenario, sign_criterion_matrix,
                             RubinStarkData)
from starklab.numfld import DatumError, QuadField


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
                        lambda data: GIdealLattice.unit(data.group))
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
    for index, want in (("1", {"N": 25, "B": 25, "prec": 128}),
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
    _count_calls(monkeypatch, numfld, "s_unit_lattice", counts, verify)
    _count_calls(monkeypatch, numfld, "ray_class", counts, verify)
    cert = run_scenario(Scenario({
        "field": {"type": "quad", "disc": 12}, "S": ["inf", 2, 3],
        "V": ["inf"], "T": [5],
        "checks": ["sign_criterion", "rs_integrality", "fitting_equality",
                   "annihilation", "igc_membership"]}))
    assert [e["verdict"] for e in cert["results"]] == \
        ["unsupported", "pass", "pass", "pass", "pass"]
    # one lattice; one ray class of the field and one of Q (the s_p flag)
    assert counts["s_unit_lattice"] == 1
    assert counts["ray_class"] <= 2
    # each entry holds its own copy of the same flags, the unsupported
    # sign_criterion's too
    flags = [cert["hypotheses"]] + [e["hypotheses"] for e in cert["results"]]
    assert len(flags) == 6
    assert all(f == flags[0] for f in flags)
    assert len({id(f["S"]) for f in flags}) == len(flags)


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
    # the hypothesis flags build the ray class of Q at S, 9 included
    ({"type": "quad", "disc": 5}, ["inf", 5, 9], [3]),
], ids=["Q-T=9", "Q-S=9", "Q-T=15", "Q-T=1", "Q(sqrt5)-T=9",
        "Q(sqrt5)-S=9"])
def test_places_that_are_not_primes_are_a_datum_error(field, S, T):
    cert = run_scenario(Scenario({"field": field, "S": S, "V": ["inf"],
                                  "T": T, "checks": RUBIN_CHECKS}))
    assert cert["exit_code"] == 2 and cert["results"] == []
    assert "must be primes" in cert["datum_error"]


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
    data = RubinStarkData(scn.realization, scn.field, scn.S, scn.V, scn.T)
    assert not data.theta().is_zero()
    assert list(data.epsilon().coeffs) == [(0, 1)]


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
        real = data.realization
        vacuous = all(
            theoretical_order(real.dirichlet(chi).inverse(), data.S)
            > len(data.V) for chi in real.group.all_characters())
        with working_precision(128):
            assert data.theta().is_zero() == vacuous, (data.S, data.V)
        key = (type(data.field).__name__, vacuous)
        counts[key] = counts.get(key, 0) + 1
    assert counts == {("str", True): 7, ("str", False): 4,
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
        if not (data.field == "Q" or isinstance(data.field, QuadField)):
            continue
        with working_precision(128):
            if not data.theta().is_zero():
                continue
            counts = {}
            with monkeypatch.context() as m:
                for cls, name in ((multilin.GLattice, "__init__"),
                                  (multilin.GLattice, "dual_values"),
                                  (numfld.SUnitLattice, "sigma_matrices"),
                                  (RubinStarkData, "t_glattice")):
                    _count_calls(m, cls, name, counts)
                pairings = data.pairings()
            assert counts == {}
            oracle = multilin.all_dual_pairings(data.epsilon(),
                                                data.t_glattice())
        assert pairings == oracle
        assert all(val.ring == "rat" and val.is_zero()
                   for _F, val in pairings)
        vacuous += 1
    assert vacuous == 33


def test_a_vacuous_compositum_is_still_out_of_scope(monkeypatch):
    # no in-scope datum of a real biquadratic lattice is vacuous at
    # V = {inf}: chi_D(q) = 1 at a q of S off D splits q in Q(sqrt D), and
    # q then has two places.  So theta is made 0 here, and the shortcut
    # still reads the T-lattice's HNF, where the compositum is unsupported
    from starklab import biquad, grpring, verify
    monkeypatch.setattr(verify, "stickelberger_element",
                        lambda real, S, V, T:
                        grpring.GroupRingElement.zero(real.group, "rat"))
    counts = {}
    _count_calls(monkeypatch, biquad.BiquadSUnitLattice, "sigma_matrices",
                 counts)
    cert = run_scenario(Scenario({
        "field": {"type": "multiquad", "discs": [5, 13]},
        "S": ["inf", 5, 13], "V": ["inf"], "T": [3],
        "checks": ["rs_integrality"]}))
    [entry] = cert["results"]
    assert entry["verdict"] == "unsupported"
    assert entry["reason"] == \
        "T-unit lattices of composita are out of desk scope"
    assert counts == {}


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
