import os
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial, lcm

import pytest
import sympy
from sympy.functions.combinatorial.numbers import stirling
from hypothesis import given, settings
from hypothesis import strategies as st

from starklab import arith, cli, sublat
from starklab.arith import (FACTOR_BOUND, CapacityError, bernoulli,
                            factorint, isprime, primerange)
from starklab.lfun import _plan
from starklab.numfld import QuadField
from starklab.sublat import enumerate_omega_star

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def test_factorint_and_isprime_below_20000_match_sympy():
    for n in range(1, 20000):
        fac = factorint(n)
        assert list(fac.items()) == list(sympy.factorint(n).items()), n
        assert isprime(n) == sympy.isprime(n), n
    assert not isprime(0) and not isprime(-7)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=FACTOR_BOUND))
def test_factorint_and_isprime_up_to_the_bound_match_sympy(n):
    fac = factorint(n)
    assert fac == sympy.factorint(n)    # sympy's order is not ascending
    assert list(fac) == sorted(fac)
    assert isprime(n) == sympy.isprime(n)


def test_primerange_matches_sympy():
    assert list(primerange(2, 5000)) == list(sympy.primerange(2, 5000))
    assert list(primerange(-5, 12)) == [2, 3, 5, 7, 11]


def test_bernoulli_matches_sympy():
    assert bernoulli(0) == 1
    for n in (400, 2, 37, 398):       # out of order: one table serves all
        assert bernoulli(n) == Fraction(str(sympy.bernoulli(n)))
    for n in range(2, 401, 2):
        assert bernoulli(n) == Fraction(str(sympy.bernoulli(n))), n


@pytest.mark.parametrize("bits", [53, 128, 256, 512, 1024])
def test_correction_coeffs_match_a_sympy_table(bits):
    # B_2j / (2j)! times the s^1 coefficient of s(s + 1)...(s + 2j - 2),
    # which is the unsigned Stirling number [2j - 1, 1]
    plan = _plan(bits)
    row = [Fraction(str(sympy.bernoulli(2 * j))) / factorial(2 * j)
           * int(stirling(2 * j - 1, 1, kind=1))
           for j in range(1, plan.B + 1)]
    d = lcm(*(c.denominator for c in row))
    assert plan.beta == (tuple(int(c * d) for c in row), d)


def test_no_factoring_beyond_desk_scale():
    assert sublat.CapacityError is arith.CapacityError
    for call in (lambda: factorint(FACTOR_BOUND + 1),
                 lambda: isprime(2 ** 89 - 1),
                 lambda: QuadField(10 ** 40 + 1),
                 lambda: enumerate_omega_star(2 ** 89 - 1, 2),
                 lambda: enumerate_omega_star(2, 20000)):
        t0 = time.perf_counter()
        with pytest.raises(CapacityError):
            call()
        assert time.perf_counter() - t0 < 1
    assert cli.main(["field", "--disc", str(10 ** 40 + 1), "classgroup"]) == 2


COLD_START_WITHOUT_SYMPY = """
import sys

import starklab
from starklab import cli, verify

verify.run_acnf(5, 5)
verify.run_acnf(-23, -23)
checks = ["sign_criterion", "rs_integrality", "fitting_equality",
          "annihilation", "igc_membership"]
cert = verify.run_scenario(verify.Scenario({
    "field": {"type": "Q"}, "S": ["inf", 2, 3], "V": ["inf"], "T": [5],
    "checks": checks, "bits": 128}))
assert [e["check"] for e in cert["results"]] == checks, cert
if "sympy" in sys.modules:
    raise SystemExit("stark-lab imported sympy")
"""


def test_stark_lab_runs_without_sympy():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", COLD_START_WITHOUT_SYMPY],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
