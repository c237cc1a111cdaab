"""Seeded workload generator for the stark-lab benchmark.

Every workload is a fixed pool of ops split into strata of similar cost. The
pool does not depend on the seed, so the verdicts recorded in
`reference.json` cover every op any seed can draw. A seed turns the pool
into an endless stream of rounds: each round takes a fixed number of ops
from every stratum, dealt from a seed-shuffled deck of the stratum's ops
(a new deck when one runs out). The ops that raised when the reference was
recorded sit at the same places in every deck, so any number of whole
rounds holds the same mix of cheap, expensive and crashing ops whatever the
seed: the seed picks which ops fill the places and in what order they run.

An op is a plain dict and the program only ever sees these inputs:
  {"kind": "acnf", "D": D}          -> verify.run_acnf(D, D)
  {"kind": "scenario", "spec": {..}} -> verify.run_scenario(Scenario(spec))

This module does no stark-lab arithmetic itself: discriminants and T are
worked out here with plain integer code.
"""

import json
import os
import random

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

WORKLOADS = ("acnf", "rubin_stark", "exact_algebra")

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)

# checks a user runs for each field type with |V| = 1 (rubin_stark); the
# multiquadratic Fitting/annihilation cells and every generic-field cell
# crash at the seed commit and stay in on purpose
RS_CHECKS = {
    "Q": ["sign_criterion", "rs_integrality", "fitting_equality",
          "annihilation", "igc_membership"],
    "quad": ["sign_criterion", "rs_integrality", "fitting_equality",
             "annihilation", "igc_membership"],
    "multiquad": ["norm_decomposition", "rs_integrality", "igc_membership",
                  "fitting_equality", "annihilation"],
    "generic": ["rs_integrality", "fitting_equality", "annihilation",
                "igc_membership"],
}
EXACT_CHECKS = ["rs_integrality", "fitting_equality", "annihilation",
                "igc_membership"]

# 48 is below the 53-bit floor of hurwitz_jet: accepted by the CLI today,
# it raises PrecisionError and is counted as a failed op
RS_BITS = (48, 80, 128, 160)

# real abelian fields given by (modulus, kernel, degree); V = {inf} needs
# the infinite place to split completely
RS_GENERIC = [(5, [4], 2), (7, [6], 3), (9, [8], 3), (13, [5], 3),
              (11, [10], 5)]
# imaginary abelian fields for |V| = 0
EXACT_GENERIC = [(5, [], 4), (7, [], 6), (9, [], 6), (13, [3], 4),
                 (7, [2], 2), (15, [4], 4)]
MULTIQUAD_DISCS = [(5, 8), (5, 12), (5, 13), (8, 13), (5, 17), (12, 13),
                   (8, 17), (13, 17), (5, 21), (5, 24), (8, 21), (13, 24)]
NORM_IDENTITY_PM = [(p, m) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
                    for m in range(2, 10) if p ** m <= 729]


# -- integer helpers ----------------------------------------------------------

def prime_factors(n):
    n = abs(n)
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _squarefree(n):
    n = abs(n)
    q = 2
    while q * q <= n:
        if n % (q * q) == 0:
            return False
        q += 1
    return True


def is_fundamental(D):
    if D in (0, 1):
        return False
    if D % 4 == 1:
        return _squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


def smallest_t(S):
    """Smallest odd prime outside S. S holds the ramified primes, so for
    the fields used here (roots of unity of order 2, 4 or 6, the 3 of
    Q(sqrt -3) being ramified) this is the least T meeting (H3)."""
    for q in SMALL_PRIMES[1:] + (29, 31, 37, 41, 43, 47):
        if q not in S:
            return q
    raise ValueError("no prime for T")


# -- pools --------------------------------------------------------------------

def _scenario(field, S, V, T, checks, bits=128, params=None):
    spec = {"field": field, "S": S, "V": V, "T": T, "checks": checks,
            "bits": bits}
    if params:
        spec["params"] = params
    return {"kind": "scenario", "spec": spec}


def _extras(rng, exclude, lo, hi):
    choices = [q for q in SMALL_PRIMES[:8] if q not in exclude]
    k = rng.randint(lo, min(hi, len(choices)))
    return sorted(rng.sample(choices, k))


def _quad_op(rng, D, checks, V, bits, lo, hi):
    ram = prime_factors(D)
    S = ["inf"] + sorted(ram + _extras(rng, ram, lo, hi))
    T = [smallest_t(S)]
    return _scenario({"type": "quad", "disc": D}, S, V, T, checks, bits)


def _generic_op(rng, modulus, kernel, degree, V, checks, lo, hi, bits=128):
    ram = prime_factors(modulus)
    S = ["inf"] + sorted(ram + _extras(rng, ram, lo, hi))
    T = [smallest_t(S)]
    field = {"type": "generic", "modulus": modulus, "kernel": kernel,
             "degree": degree}
    return _scenario(field, S, V, T, checks, bits)


def _acnf_pool():
    # Positive D only: a negative D costs ~1 ms against ~170 ms for a
    # positive one, and mixing the two would put the median between modes.
    # Strata are conductor bands, one D of each per round.
    ds = [D for D in range(5, 301) if is_fundamental(D)]
    bands = [(5, 60), (60, 120), (120, 180), (180, 240), (240, 301)]
    return [(f"D{lo}-{hi - 1}", 1,
             [{"kind": "acnf", "D": D} for D in ds if lo <= D < hi])
            for lo, hi in bands]


def _rubin_stark_pool():
    # The mixed pipeline: l_jet (about 55% of the time in a profile),
    # S-unit lattices and ray classes (about 30%), Fitting ideals and
    # pairings, at several working precisions of the same ball/lfun layers;
    # the large-conductor real fields set the p90.
    # Strata are small enough that a run covers each of them at least once,
    # so the mix hardly depends on the seed. The 80-bit ops, which set
    # cert_bits_min, sit in the two strata a run always covers in full.
    rng = random.Random("pool:rubin_stark")
    real = [D for D in range(5, 301) if is_fundamental(D)]
    low = RS_BITS
    high = tuple(b for b in RS_BITS if b != 80)

    def bits_cycle(choices, n):
        return [choices[i % len(choices)] for i in range(n)]

    strata = []
    q_ops = []
    for bits in bits_cycle(low, 12):
        S = ["inf"] + _extras(rng, (), 1, 4)
        q_ops.append(_scenario({"type": "Q"}, S, ["inf"],
                               [smallest_t(S)], RS_CHECKS["Q"], bits))
    strata.append(("Q", 2, q_ops))
    for name, lo, hi, step, bits, weight in (
            ("quad_small", 5, 60, 1, low, 2),
            ("quad_mid", 60, 150, 2, high, 2),
            ("quad_large", 150, 301, 4, high, 1)):
        ds = [D for D in real if lo <= D < hi][::step]
        ops = [_quad_op(rng, D, RS_CHECKS["quad"], ["inf"], b, 0, 4)
               for D, b in zip(ds, bits_cycle(bits, len(ds)))]
        strata.append((name, weight, ops))
    mq = []
    for (d1, d2), bits in zip(MULTIQUAD_DISCS, bits_cycle(high, 12)):
        ram = sorted(set(prime_factors(d1) + prime_factors(d2)))
        S = ["inf"] + sorted(ram + _extras(rng, ram, 0, 2))
        mq.append(_scenario({"type": "multiquad", "discs": [d1, d2]}, S,
                            ["inf"], [smallest_t(S)],
                            RS_CHECKS["multiquad"], bits))
    strata.append(("multiquad", 1, mq))
    gen = [_generic_op(rng, m, k, d, ["inf"], RS_CHECKS["generic"], 0, 4,
                       bits)
           for (m, k, d), bits in zip(RS_GENERIC * 2, bits_cycle(low, 10))]
    strata.append(("generic", 1, gen))
    return strata


def _exact_algebra_pool():
    # The L engine does almost nothing here (bernoulli_value is exact):
    # the work is S-unit lattices and ray class groups in numfld, hnf,
    # zideal, sublat and grpring. For an L-engine change this is the
    # workload where the prediction is "no change".
    # The imaginary quadratic strata go by the number of extra primes in
    # S, which sets the cost (1-2: ~40 ms, 5-6: ~300 ms); the weights put
    # the median inside the dense 1-2 cluster, not in a gap between two.
    rng = random.Random("pool:exact_algebra")
    imag = [D for D in range(-3, -1101, -1) if is_fundamental(D)]
    ds = rng.sample(imag, 60)
    strata = []
    for name, weight, lo, hi, fields in (("imag_S1-2", 3, 1, 2, ds[:24]),
                                         ("imag_S3-4", 2, 3, 4, ds[24:44]),
                                         ("imag_S5-6", 1, 5, 6, ds[44:])):
        ops = [_quad_op(rng, D, EXACT_CHECKS, [], 128, lo, hi)
               for D in sorted(fields, reverse=True)]
        strata.append((name, weight, ops))
    strata.append(("norm_identity", 1, [
        _scenario({"type": "Q"}, [], [], [], ["norm_identity"],
                  params={"p": p, "m": m})
        for p, m in NORM_IDENTITY_PM]))
    neg = [D for D in range(-3, -1501, -1) if is_fundamental(D)]
    strata.append(("acnf_negative", 2, [{"kind": "acnf", "D": D}
                                        for D in neg[::4]]))
    gen = [_generic_op(rng, m, k, d, [], EXACT_CHECKS, 0, 2)
           for m, k, d in EXACT_GENERIC * 2]
    strata.append(("generic", 1, gen))
    return strata


POOLS = {"acnf": _acnf_pool, "rubin_stark": _rubin_stark_pool,
         "exact_algebra": _exact_algebra_pool}


def pool(workload):
    """[(stratum name, ops per round, [op, ...]), ...] for a workload."""
    if workload not in POOLS:
        raise ValueError(f"unknown workload {workload!r}")
    return POOLS[workload]()


def op_key(op):
    """Canonical text of an op; keys the reference verdicts."""
    return json.dumps(op, sort_keys=True, separators=(",", ":"))


def load_reference(workload):
    """{op_key: recorded outcome} for every op of the workload's pool."""
    with open(REFERENCE) as fh:
        return json.load(fh)[workload]


def round_size(workload):
    return sum(n for _name, n, _ops in pool(workload))


def _deck(rng, ops, crashing):
    """One pass over a stratum: every op once, in seed-shuffled order, with
    the crashing ops at evenly spaced places that do not depend on the
    seed."""
    bad = [op for op in ops if op_key(op) in crashing]
    good = [op for op in ops if op_key(op) not in crashing]
    rng.shuffle(bad)
    rng.shuffle(good)
    slots = {(2 * i + 1) * len(ops) // (2 * len(bad))
             for i in range(len(bad))}
    return [bad.pop() if i in slots else good.pop() for i in range(len(ops))]


def stream(workload, seed):
    """Endless seeded stream of ops for a workload, one round at a time.

    The pool is built before this returns. acnf rounds run in ascending D,
    as run_acnf visits discriminants; the scenario workloads run each round
    in seed-shuffled order.
    """
    strata = pool(workload)
    crashing = {key for key, rec in load_reference(workload).items()
                if rec["outcome"] == "error"}
    rng = random.Random(f"{workload}:{seed}")

    def rounds():
        decks = [[] for _ in strata]
        while True:
            round_ops = []
            for deck, (_name, per_round, ops) in zip(decks, strata):
                for _ in range(per_round):
                    if not deck:
                        deck.extend(_deck(rng, ops, crashing))
                    round_ops.append(deck.pop())
            if workload == "acnf":
                round_ops.sort(key=lambda op: op["D"])
            else:
                rng.shuffle(round_ops)
            yield from round_ops
    return rounds()
