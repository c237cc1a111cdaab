"""Scenario harness: validates Rubin data (S, V, T), runs the identity,
integrality, Fitting-ideal, and annihilation checks end-to-end on concrete
abelian extensions of Q, and emits re-verifiable certificates.

Verdicts are "pass" / "fail" / "undecided" / "blocked" / "unsupported";
undecided is distinct from failure.  Raising the precision can only resolve
undecided verdicts, never flip a pass or fail (every pass is backed by an
exact witness or a certified enclosure).

Every check is one row of `CHECKS`.  Its runner returns a verdict and a
witness, or raises; `_run_check` alone turns what it raised into a verdict:

    NonIntegralError      the row's verdict: "fail" for rs_integrality and
                          fitting_equality, "blocked" for annihilation and
                          igc_membership; the witness is the pairing
    Undecided             "undecided", with the limiting radius (also
                          UnresolvedOrderError and PrecisionError)
    UnsupportedCaseError  "unsupported" (also CapacityError, a datum
                          past a desk bound)
    CertificationError    "fail", the message as witness
    DatumError, InputError, ConfigError
                          "blocked"

and each keeps the exception's message: as the witness for
CertificationError, as `reason` for the others.  Any other exception is a
fault of the program and propagates.

Each exact decision has one rule.  An integer is read off an enclosure
only by `Ball.only_integer`, which certifies the one integer the enclosure
holds: the pairings of epsilon and the positive-D ACNF ratio both go
through it.  Annihilation is the containment of im(epsilon) in
`zideal.annihilator` of the ray class group.  Fitt^{|V|}(Sel^tr) is one
closed form, `selmer_transpose_fitting`.
"""

import itertools
import json
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, NamedTuple

from .arith import CapacityError, factorint, isprime
from . import hnf
from .ball import (Ball, CertificationError, Undecided, ball_combination,
                   ball_det, ball_log_int, gauss_solve, max_radius,
                   working_precision)
from .biquad import BiquadField
from .grpring import GroupRingElement, InputError
from .lfun import (AbelianFieldRealization, DirichletChar, LSpec,
                   bernoulli_value, l_jet, stickelberger_element)
from .multilin import (GLattice, NonIntegralError, WedgeElement,
                       all_dual_pairings, norm_decomposition_residual,
                       pairing_vector)
from .numfld import (MAX_ABS_DISC, QQ, DatumError, QuadField, RubinDatum,
                     _check_torsion_killed, class_number,
                     fundamental_unit_log, q_ray_relations, ray_class)
from .sublat import enumerate_omega_star, norm_sum_identity
from .zideal import (GIdealLattice, UnsupportedCaseError, annihilator,
                     augmentation_ideal_power, fitting_from_extension)

CHECK_ALIASES = {"lemma41": "norm_identity", "prop42": "norm_decomposition"}


class ConfigError(ValueError):
    """Malformed scenario file."""


def _config_int(value, what):
    """`value` (an int, or a string of one) as an int; ConfigError for
    anything else, floats and booleans included."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _config_list(value, what):
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return value


def _config_places(value, what):
    """A list of places: "inf" (or "oo", "infinity") and primes as ints."""
    return [v if v in ("inf", "oo", "infinity")
            else _config_int(v, f"{what} entry")
            for v in _config_list(value, what)]


def _config_params(params):
    """The per-check `params` with the entries the checks read checked and
    converted: `p` and `m` integers, `range` two integers."""
    out = dict(params)
    for key in ("p", "m"):
        if key in out:
            out[key] = _config_int(out[key], f"params.{key}")
    if "range" in out:
        rng = [_config_int(d, "params.range entry")
               for d in _config_list(out["range"], "params.range")]
        if len(rng) != 2:
            raise ConfigError(f"params.range must have two entries, got "
                              f"{out['range']!r}")
        out["range"] = rng
    return out


def field_of(spec):
    """(realization, field) of a scenario's `field` object, as a
    `RubinDatum` holds them: a generic field has none, only a realization."""
    if not isinstance(spec, dict):
        raise ConfigError(f"field must be a JSON object, got {spec!r}")
    kind = spec.get("type", "Q")
    if kind == "Q":
        return AbelianFieldRealization.rationals(), QQ
    if kind == "quad":
        D = _config_int(spec.get("disc"), "disc")
        return AbelianFieldRealization.quadratic(D), QuadField(D)
    if kind == "multiquad":
        discs = [_config_int(d, "discs entry")
                 for d in _config_list(spec.get("discs"), "discs")]
        if len(discs) != 2:
            raise ConfigError(f"multiquad takes two discriminants, got "
                              f"{discs!r}")
        realization = AbelianFieldRealization.multiquadratic(discs)
        # the coordinate characters are the subfields' Kronecker
        # characters, and a quadratic character's discriminant is
        # chi(-1) times its modulus
        return realization, BiquadField(*(
            chi.parity() * chi.modulus
            for chi in realization.coordinate_characters))
    if kind == "generic":
        kernel = [_config_int(g, "kernel entry")
                  for g in _config_list(spec.get("kernel", []), "kernel")]
        degree = spec.get("degree")
        return AbelianFieldRealization(
            _config_int(spec.get("modulus"), "modulus"), kernel,
            expected_degree=None if degree is None
            else _config_int(degree, "degree")), None
    raise ConfigError(f"unknown field type {kind!r}")


# -- scenario ----------------------------------------------------------------

class Scenario:
    """A verification job: field data, Rubin datum, checks, precision."""

    def __init__(self, spec):
        if not isinstance(spec, dict):
            raise ConfigError("scenario must be a JSON object")
        if spec.get("schema", 1) != 1:
            raise ConfigError("unsupported scenario schema version")
        self.raw = spec
        self.bits = _config_int(spec.get("bits", 128), "bits")
        if self.bits < 1:
            raise ConfigError(f"bits must be at least 1, got {self.bits}")
        if "order" in spec:
            raise ConfigError(
                "the scenario key 'order' was removed: every check reads the "
                "leading term at the order |V|, which no key changes")
        self.realization, self.field = field_of(
            spec.get("field", {"type": "Q"}))
        self.S = _config_places(spec.get("S", []), "S")
        self.V = _config_places(spec.get("V", []), "V")
        self.T = [_config_int(q, "T entry")
                  for q in _config_list(spec.get("T", []), "T")]
        checks = []
        for c in _config_list(spec.get("checks", []), "checks"):
            c = CHECK_ALIASES.get(c, c)
            if c not in CHECKS:
                raise ConfigError(f"unknown check {c!r}")
            checks.append(c)
        self.checks = checks
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"params must be a JSON object, got {params!r}")
        self.params = _config_params(params)
        self.datum = None
        self._flags = None

    def validate_datum(self):
        """Build `self.datum`, which every check reads: `RubinDatum.of`
        checks the shape, (H1) and (H2) (InputError), and (H3) is checked
        here and nowhere else (DatumError), by one rule on T for every
        field, generic fields too (`numfld._check_torsion_killed`)."""
        datum = RubinDatum.of(self.realization, self.field, self.S, self.V,
                              self.T)
        _check_torsion_killed(datum.T)
        self.datum = datum
        self._flags = None

    def hypothesis_flags(self):
        """The theorem-hypothesis flags of the datum: a fresh copy each
        call, computed once per datum (validate_datum starts them over).
        The values are numbers, booleans and the place lists S, V and T,
        so a new dict with new lists of them copies it in full."""
        if self._flags is None:
            self._flags = self._compute_flags()
        flags = self._flags
        return {**flags, "S": list(flags["S"]), "V": list(flags["V"]),
                "T": list(flags["T"])}

    def _compute_flags(self):
        S, V, T = self.datum.S, self.datum.V, self.datum.T
        flags = {"S": list(S), "V": list(V), "T": list(T)}
        flags["thm1_bound"] = len(S) > len(V) + 1
        invf = self.realization.group.invariant_factors
        if invf and all(f == invf[0] for f in invf):
            p = invf[0]
            if isprime(p):
                m = len(invf)
                sp = _q_ray_p_rank(S, T, p)
                bound = max(len(V) + 2, len(V) - sp + (p - 1) * (m - 1) + 3)
                flags.update({"p": p, "m": m, "s_p": sp,
                              "thm2_bound": len(S) >= bound,
                              "thm2_required_S": bound})
        return flags

    def __repr__(self):
        return (f"Scenario({self.realization.label}, S={self.S}, "
                f"V={self.V}, T={self.T}, checks={self.checks})")


def _q_ray_p_rank(S, T, p):
    """s_p, the p-rank of Cl_{Q,S,T}: the number of generators of its
    presentation (`q_ray_relations`) less the F_p-rank of its relations."""
    ngens, rows = q_ray_relations(S, T)
    pivots = []     # (column c, a row mod p that is 1 at c)
    for row in rows:
        for c, piv in pivots:
            k = row[c]
            row = [(x - k * y) % p for x, y in zip(row, piv)]
        c = next((c for c, x in enumerate(row) if x % p), None)
        if c is not None:
            inv = pow(row[c], -1, p)
            pivots.append((c, [x * inv % p for x in row]))
    return ngens - len(pivots)


# -- shared pipeline pieces ---------------------------------------------------

class RubinStarkData:
    """Cached pipeline state of one `RubinDatum`, read as it is: each of
    the stages lattice, ray, theta, epsilon, pairings, pairing_vectors and
    im_lattice is a `functools.cached_property`, computed at most once (a
    stage that raises is not kept).  lattice is the datum's field's; a
    generic field has none yet.  A caller that already holds the S-unit
    lattice passes it as `lattice`."""

    def __init__(self, datum, lattice=None):
        self.datum = datum
        if lattice is not None:
            self.lattice = lattice

    @property
    def group(self):
        return self.datum.realization.group

    @cached_property
    def lattice(self):
        d = self.datum
        return d.field.s_unit_lattice(d.S, d.T)

    @cached_property
    def ray(self):
        """Cl_{K,S,T} of the datum, which `ray_class` reads off this
        datum's lattice: its field, S and T, and its generators, which
        give the unit image.  A compositum is refused before its lattice
        is built, so its reason is the ray class, not its places."""
        if self.datum.field.subfields:
            raise UnsupportedCaseError(
                "ray class groups of composita are out of desk scope")
        return ray_class(self.lattice)

    @cached_property
    def theta(self):
        return stickelberger_element(self.datum)

    def t_glattice(self):
        """O^x_{K,S,T} as a GLattice in lattice coordinates."""
        lat = self.lattice
        return GLattice(self.group, lat.rank, lat.t_lattice_hnf(),
                        lat.sigma_matrices())

    @cached_property
    def epsilon(self):
        """The Rubin-Stark wedge element in lattice coordinates."""
        # the lattice first: an out-of-scope field is unsupported at any
        # precision, before the L-values can ask for more bits
        lat = self.lattice
        theta = self.theta
        r = len(self.datum.V)
        if r == 0:
            return WedgeElement(self.group, 0, {(): theta})
        if theta.is_zero():
            return WedgeElement(self.group, r, {})
        if r == 1:
            coords = self._solve_degree_one(theta)
            coeffs = {(i,): GroupRingElement.one(self.group, "ball").scale(c)
                      for i, c in enumerate(coords)}
            return WedgeElement(self.group, 1, coeffs)
        if self.group.order == 1:
            coeff = self._solve_full_wedge(theta, r)
            key = tuple(range(lat.rank))
            coeffs = {key: GroupRingElement.one(self.group, "ball")
                      .scale(coeff)}
            return WedgeElement(self.group, r, coeffs)
        raise UnsupportedCaseError(
            "wedge degree >= 2 over a nontrivial group is out of desk scope")

    def _solve_degree_one(self, theta):
        """epsilon's lattice coordinates x at r = 1: the solution of
        sum_g x_g (-log|g|_w) = b_w at every place w of S but w0, the
        first place over the first v0 of S outside V, where b puts each
        coefficient of theta at the image of the first place over V and
        takes it off at the image of w0.

        A finite row w is ord_w(g) log N(w), so divided through it is the
        integer row of the valuations, with right side
        beta_w = b_w / log N(w).  That finite block F has, over Q, a
        solution p_w of F p_w = e_w and an integer kernel basis Z, so
        x = sum_w beta_w p_w + Z s over the w with b_w != 0.  The infinite
        rows Lambda fix s by the small ball system
        (Lambda Z) s = b_inf - sum_w beta_w Lambda p_w, which `gauss_solve`
        solves: 1 x 1 over Q, 2 x 2 for a real quadratic field, 4 x 4 for
        a biquadratic compositum, and empty when w0 is the infinite place.
        Each entry of Lambda Z, each Lambda p_w and each x_g is one
        `ball_combination`.  A kernel of another rank than the number of
        infinite rows is a CertificationError: the system is then not
        square."""
        lat, S, V = self.lattice, self.datum.S, self.datum.V
        v0 = next(v for v in S if v not in V)
        idx1 = lat.place_ranges[V[0]][0]
        idx0 = lat.place_ranges[v0][0]
        n, k = len(lat.places), len(lat.place_ranges["inf"])
        b = [Ball(0) for _ in range(n)]
        for el, coeff in zip(self.group.elements, theta.coeffs):
            c = coeff if isinstance(coeff, Ball) else Ball(coeff)
            perm = lat.place_permutation(el)
            b[perm[idx1]] = b[perm[idx1]] + c
            b[perm[idx0]] = b[perm[idx0]] - c
        inf_rows = [j for j in range(k) if j != idx0]
        fin_rows = [j for j in range(k, n) if j != idx0]
        # x @ block is F x: a row per generator, a column per finite row
        block = [[vals[j - k] for j in fin_rows] for vals in lat.valuations]
        kernel = hnf.kernel(block, len(fin_rows))
        if len(kernel) != len(inf_rows):
            raise CertificationError(
                f"the valuations at the finite rows have a kernel of rank "
                f"{len(kernel)}, not the {len(inf_rows)} infinite rows")
        betas, parts = [], []
        for j in fin_rows:
            if b[j].is_zero():
                continue
            p = hnf.rational_solve(block, [int(i == j) for i in fin_rows])
            if p is None:
                raise CertificationError(
                    f"no rational solution of the valuations for "
                    f"{lat.places[j]!r}")
            betas.append(b[j] / ball_log_int(lat.places[j].nw()))
            parts.append(p)
        den = lcm(*(c.denominator for p in parts for c in p))
        parts = [[c.numerator * (den // c.denominator) for c in p]
                 for p in parts]
        arch = lat.arch_logs
        A, rhs = [], []
        for j in inf_rows:
            logs = [row[j] for row in arch]
            A.append([ball_combination(z, logs, 1, (0, 1)) for z in kernel])
            r = b[j]
            for beta, p in zip(betas, parts):
                r = r - beta * ball_combination(p, logs, den, (0, 1))
            rhs.append(r)
        s = gauss_solve(A, rhs)
        rows = parts + [[den * c for c in z] for z in kernel]
        return [ball_combination([row[g] for row in rows], betas + s, den,
                                 (0, 1)) for g in range(lat.rank)]

    def _solve_full_wedge(self, theta, r):
        lat = self.lattice
        if lat.rank != r:
            raise CertificationError(
                f"full-wedge solve needs |V| = rank, got |V| = {r} and "
                f"rank {lat.rank}")
        S, V = self.datum.S, self.datum.V
        v0 = next(v for v in S if v not in V)
        idx0 = lat.place_ranges[v0][0]
        dropped = [j for j in range(len(lat.places)) if j != idx0]
        # sign of the arrangement of V-places inside the dropped list
        positions = [dropped.index(lat.place_ranges[v][0]) for v in V]
        sign = _permutation_sign(positions)
        lam = lat.log_matrix()
        M = [[lam[g][j] for g in range(lat.rank)] for j in dropped]
        det = ball_det(M)
        th = theta.coeffs[0]
        thb = th if isinstance(th, Ball) else Ball(th)
        return (thb * sign) / det

    @cached_property
    def pairings(self):
        """[(index, pairing)]: epsilon paired with every r-subset of the
        dual basis of M = O^x_{K,S,T} (`all_dual_pairings`); for |V| = 0,
        theta itself.  That basis has t = rank_Z M elements, so an
        epsilon = 0 at r = |V| >= 1 pairs to 0 on the r-subsets of
        range(t): no Galois action is built, only the HNF that rules out a
        compositum."""
        # epsilon builds the lattice first, so an out-of-scope field is
        # unsupported before any L-value, for |V| = 0 too
        eps, r = self.epsilon, len(self.datum.V)
        if not r:
            return [(("theta",), self.theta)]
        if not eps.coeffs:
            t = len(self.lattice.t_lattice_hnf())
            return [(F, GroupRingElement.zero(self.group, "rat"))
                    for F in itertools.combinations(range(t), r)]
        return all_dual_pairings(eps, self.t_glattice())

    @cached_property
    def pairing_vectors(self):
        """[(index, integer vector)] of the pairings; raises
        NonIntegralError or Undecided as `pairing_vector` does."""
        return [(idx, pairing_vector(val, idx))
                for idx, val in self.pairings]

    @cached_property
    def im_lattice(self):
        """im(epsilon), the G-stable lattice of the pairing vectors: for
        |V| = 0 the principal ideal of theta."""
        return GIdealLattice.from_vectors(
            self.group, [vec for _idx, vec in self.pairing_vectors])


def _permutation_sign(seq):
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def max_pairing_radius(pairings):
    """The largest radius among the ball coefficients of the pairings
    (`ball.max_radius`), 0 when every pairing is exact."""
    return max_radius(c for _idx, val in pairings if val.ring == "ball"
                      for c in val.coeffs)


# -- individual checks --------------------------------------------------------

def check_norm_identity(p, m):
    """The subgroup-norm identity over (Z/p)^m, exactly; returns its
    witness, and raises CertificationError when it fails."""
    hs = enumerate_omega_star(p, m)
    norm_sum_identity(hs)
    avoiding, containing = hs.count_avoiding((1,) + (0,) * (m - 1))
    return {
        "p": p, "m": m,
        "constant": p ** (m - 1),
        "proper_subgroups": hs.count_proper(),
        "avoiding_count": avoiding,
        "containing_count": containing,
    }


def check_sign_criterion(log_matrix):
    """Certified sign of det(log|b|_w); Undecided when the ball straddles 0.

    Accepts a square matrix of Balls (or exact numbers).
    """
    n = len(log_matrix)
    if any(len(r) != n for r in log_matrix):
        raise InputError("sign criterion needs a square log matrix")
    rows = [[c if isinstance(c, Ball) else Ball(c) for c in row]
            for row in log_matrix]
    det = ball_det(rows)
    return det.sign(), det


def sign_criterion_matrix(data):
    """The log matrix over the Z-basis of O^x_{K,S,T} and the places above V."""
    lat = data.lattice
    v_place_idx = sorted(i for v in data.datum.V
                         for i in lat.place_ranges[v])
    if lat.rank != len(v_place_idx):
        # the shape is fixed by (S, V): no precision makes it square, and
        # nothing is built for it
        raise UnsupportedCaseError(
            f"log matrix is {lat.rank} x {len(v_place_idx)}, not square")
    rows = lat.t_lattice_hnf()
    lam = lat.log_matrix()
    out = []
    for row in rows:
        combo = None
        for coeff, lam_row in zip(row, lam):
            if coeff:
                term_row = [e * coeff for e in lam_row]
                combo = term_row if combo is None else \
                    [a + b for a, b in zip(combo, term_row)]
        # entries of lam are -log|g|_w; the criterion uses +log|b|_w
        out.append([-combo[j] for j in v_place_idx])
    return out


def _run_rs_integrality(scn, data, entry):
    """Rubin-Stark integrality: every pairing of epsilon lies in Z[G]."""
    vectors = data.pairing_vectors
    im = data.im_lattice
    entry["max_radius"] = _radius_str(max_pairing_radius(data.pairings))
    return "pass", {
        "pairing_vectors": [(list(idx), vec) for idx, vec in vectors],
        "image_hnf": [list(r) for r in im.basis()],
        "saturation_index": data.lattice.saturation_index,
    }


def _radius_str(r):
    if r is None:
        return None
    return f"{float(r):.3e}"


def selmer_transpose_fitting(data, ray):
    """Fitt^{|V|}(Sel^tr) for G trivial or of prime order, as (ideal,
    method); UnsupportedCaseError for any other G, and when Cl_{K,S,T} != 1
    and a place outside V has more than one place of K above it.

    At Cl_{K,S,T} = 1, Sel^tr is the place module X_{K,S}, the kernel of
    the sum map from Y_{K,S} = (+)_{v in S} Z[G/G_v] to Z.  S holds a place
    v0 with one place w0 of K above it (every place of Q, and a ramified
    prime by (H1)), and G fixes w0, so dropping w0's coordinate maps X_{K,S}
    isomorphically onto (+)_{v != v0} Z[G/G_v].  For G trivial or of prime
    order, Z[G/G_v] is Z[G] when v has more than one place above it and
    Z = Z[G]/I_G when it has one.  The places of V split completely, so one
    more such place outside V gives |V| + 1 free summands and Fitt^{|V|} =
    0.  Otherwise the sum is Z^(d-1) + Z[G]^{|V|}, d = |S| - |V|, and with
    Cl added the ideal is Fitt^0(Cl) * I_G^(d-1),
    `zideal.fitting_from_extension` (Fitt^0(Cl) = Z[G] at Cl = 1).
    """
    group, S, V = data.group, data.datum.S, data.datum.V
    if group.order > 1 and not isprime(group.order):
        raise UnsupportedCaseError(
            "the place module's closed form needs G trivial or of prime "
            "order")
    trivial = ray.order() == 1
    method = "closed form of Fitt^{|V|}(X_{K,S})" if trivial else \
        "Cl + trivial-action extension presentation"
    places = data.lattice.place_ranges
    split = [v for v in S if v not in V and len(places[v]) > 1]
    if split and not trivial:
        raise UnsupportedCaseError(
            f"place {split[0]} outside V lacks full decomposition group")
    return (GIdealLattice.zero(group) if split
            else fitting_from_extension(ray, len(S) - len(V))), method


def _run_fitting_equality(scn, data, entry):
    """im(epsilon) equals the Fitting ideal of the transposed Selmer
    module."""
    entry["sharp_convention"] = (
        "Fitt(Sel)^# is computed as Fitt(Sel^tr) of the transpose module")
    ray = data.ray
    fit, method = selmer_transpose_fitting(data, ray)
    im = data.im_lattice
    contains_1 = fit.contains(im)
    contains_2 = im.contains(fit)
    return "pass" if contains_1 and contains_2 else "fail", {
        "method": method,
        "image_hnf": [list(r) for r in im.basis()],
        "fitting_hnf": [list(r) for r in fit.basis()],
        "double_containment": [contains_1, contains_2],
        "class_group_orders": list(ray.orders),
    }


def _run_annihilation(scn, data, entry):
    """im(epsilon) kills the ray class group Cl_{K,S,T}: Ann(Cl_{K,S,T})
    contains im(epsilon).  A fail names the image row outside Ann."""
    module = data.ray
    image = [list(r) for r in data.im_lattice.basis()]
    if module.order() == 1:
        return "pass", {"class_group": "trivial", "image_hnf": image}
    ann = annihilator(module)
    outside = next((row for row in image if not ann.contains_vector(row)),
                   None)
    witness = {"image_hnf": image,
               "class_group_orders": list(module.orders),
               "action": module.action}
    if outside is not None:
        return "fail", {**witness, "image_row_outside": outside,
                        "annihilator_hnf": [list(r) for r in ann.basis()]}
    return "pass", witness


def _run_igc_membership(scn, data, entry):
    """Membership of all pairings in I_G^c for the recorded exponent c."""
    flags = entry["hypotheses"]
    if "p" not in flags:
        raise UnsupportedCaseError("group is not p-elementary")
    p, m, sp = flags["p"], flags["m"], flags["s_p"]
    nS, nV = len(data.datum.S), len(data.datum.V)
    c = max(nS - nV + sp - (p - 1) * (m - 1) - 2, 0)
    if nS < nV + 2:
        c = 0
    entry["exponent"] = c
    ideal = augmentation_ideal_power(data.group, c)
    vectors = data.pairing_vectors
    for _idx, vec in vectors:
        if not ideal.contains_vector(vec):
            return "fail", {"pairing": list(vec), "exponent": c}
    entry["max_radius"] = _radius_str(max_pairing_radius(data.pairings))
    return "pass", {"exponent": c,
                    "ideal_hnf": [list(r) for r in ideal.basis()],
                    "pairing_count": len(vectors)}


def _run_norm_decomposition(scn, data, entry):
    """The subfield-norm decomposition of the Rubin-Stark element for a real
    biquadratic compositum with V = {inf}."""
    datum = data.datum
    if not isinstance(datum.field, BiquadField):
        raise UnsupportedCaseError(
            "norm decomposition runs on biquadratic composita")
    if datum.V != ("inf",):
        raise UnsupportedCaseError("implemented for V = {inf}")
    lat = data.lattice
    eps_K = data.epsilon
    group = data.group
    # subfield elements, included into compositum coordinates
    parts = []
    sub_witness = []
    for idx, D in enumerate(datum.field.discs):
        # (H1) and (H2) hold over each subfield: its ramified primes are
        # the compositum's, and it is real, as V = {inf} splits completely
        sub_datum = datum._replace(
            realization=AbelianFieldRealization.quadratic(D),
            field=QuadField(D))
        sub_data = RubinStarkData(sub_datum, lattice=lat.sub_lattices[idx])
        eps_sub = sub_data.epsilon
        parts.append(_included(group, (
            (z, lat.subfield_generator_coords(idx, j))
            for (j,), z in eps_sub.coeffs.items())))
        sub_witness.append({"disc": D,
                            "coords": [repr(v) for v in
                                       _coords_list(eps_sub, lat.sub_lattices[idx].rank)]})
    # the base-field element over Q is 0: S holds inf and the two or more
    # primes that ramify in a real biquadratic field, so zeta_{Q,S,T}(s)
    # vanishes to order |S| - 1 >= 2 > |V| = 1
    eps_base = WedgeElement(group, 1, {})
    holds, radius = norm_decomposition_residual(eps_K, parts, eps_base, 2, 2)
    entry["residual_radius"] = _radius_str(radius)
    return "pass" if holds else "fail", {
        "subfields": sub_witness,
        "epsilon_coords": [repr(v) for v in _coords_list(eps_K, lat.rank)]}


def _included(group, terms):
    """The degree-1 wedge element over the compositum that puts, for each
    (z, co) in terms, the scalar of z (its identity coefficient) times
    co[i] on lattice coordinate i."""
    incl = {}
    for z, co in terms:
        scalar = z.coefficient(z.group.identity())
        for bi, c in enumerate(co):
            if c:
                key = (bi,)
                term = GroupRingElement.one(group, "ball").scale(
                    scalar * Fraction(c))
                incl[key] = incl[key] + term if key in incl else term
    return WedgeElement(group, 1, incl)


def _coords_list(eps, rank):
    out = []
    for i in range(rank):
        z = eps.coefficient((i,))
        if z is None:
            out.append(0)
        else:
            out.append(z.coefficient(z.group.identity()))
    return out


def run_acnf(dmin=-500, dmax=500):
    """Analytic class number formula sweep over fundamental discriminants,
    at the working precision in force.

    Positive D: n = 2 L'(0, chi_D) / log eps_D is an integer (Lerch); its
    enclosure must hold exactly one integer, and it must be 2 h(D).
    Negative D: L(0, chi_D) = 2 h(D) / w(D) exactly.
    Returns a summary dict.  An enclosure with no integer or the wrong one,
    or an exact value that differs, raises CertificationError; one with two
    integers raises Undecided with its radius; a range that holds no
    fundamental discriminant, and so checks nothing, raises InputError;
    one that reaches past the desk bound |D| <= MAX_ABS_DISC raises
    CapacityError before any D is checked.
    """
    from .numfld import is_fundamental_discriminant
    if max(abs(dmin), abs(dmax)) > MAX_ABS_DISC:
        raise CapacityError(f"the range [{dmin}, {dmax}] leaves the desk "
                            f"bound |D| <= {MAX_ABS_DISC}")
    checked_pos = checked_neg = 0
    max_resid = Fraction(0)
    for D in range(dmin, dmax + 1):
        if D in (0, 1) or not is_fundamental_discriminant(D):
            continue
        chi = DirichletChar.quadratic(D)
        S = ["inf"] + sorted(factorint(abs(D)))
        if D < 0:
            val = bernoulli_value(chi, S)
            w = QuadField(D).torsion_generator()[1]
            h = class_number(D)
            if val != Fraction(2 * h, w):
                raise CertificationError(
                    f"ACNF fails at D = {D}: L(0, chi_D) = {val}, "
                    f"2h/w = {Fraction(2 * h, w)}")
            checked_neg += 1
            continue
        c1 = l_jet(LSpec(chi, S)).value
        h = class_number(D)
        reg = fundamental_unit_log(D)
        ratio = 2 * c1 / reg
        n = ratio.only_integer(f"2 L'(0, chi_D) / log eps_D at D = {D}")
        if n != 2 * h:
            raise CertificationError(
                f"ACNF fails at D = {D}: 2 L'(0, chi_D) / log eps_D = "
                f"{ratio}, 2h = {2 * h}")
        lo, hi = (c1 - reg * h).endpoints()
        max_resid = max(max_resid, abs(lo), abs(hi))
        checked_pos += 1
    if checked_pos + checked_neg == 0:
        raise InputError(
            f"no fundamental discriminant in [{dmin}, {dmax}]")
    return {"positive": checked_pos, "negative": checked_neg,
            "max_positive_residual": _radius_str(max_resid)}


def _run_norm_identity(scn, data, entry):
    return "pass", check_norm_identity(scn.params.get("p", 2),
                                       scn.params.get("m", 2))


def _run_sign_criterion(scn, data, entry):
    sign, det = check_sign_criterion(sign_criterion_matrix(data))
    inside = len(data.datum.S) == len(data.datum.V) + 1 \
        and data.ray.order() == 1
    return "pass", {"sign": sign, "det_mid": repr(det),
                    "inside_hypotheses": inside}


def _run_acnf(scn, data, entry):
    return "pass", run_acnf(*scn.params.get("range", [-500, 500]))


# -- the check table and the runner -------------------------------------------

class Check(NamedTuple):
    # (scn, data, entry) -> (verdict, witness); the runner may also record
    # on `entry` what it learnt on the way (a radius, an exponent), which
    # the entry keeps whatever the verdict
    run: Callable
    # reads the Rubin datum (S, V, T): the datum is validated before any
    # check runs, and the entry records its hypothesis flags
    datum: bool
    # the verdict when a pairing of epsilon is not in Z[G]
    non_integral: str = "fail"


# every row reads the Rubin datum or its `params`: a check that reads
# neither would re-prove a fixed fact on every run, and has no row
CHECKS = {
    "norm_identity": Check(_run_norm_identity, datum=False),
    "norm_decomposition": Check(_run_norm_decomposition, datum=True),
    "sign_criterion": Check(_run_sign_criterion, datum=True),
    "rs_integrality": Check(_run_rs_integrality, datum=True),
    "fitting_equality": Check(_run_fitting_equality, datum=True),
    # a non-integral image says nothing of the class group or of I_G^c:
    # these two checks cannot run without an integral epsilon
    "annihilation": Check(_run_annihilation, datum=True,
                          non_integral="blocked"),
    "igc_membership": Check(_run_igc_membership, datum=True,
                            non_integral="blocked"),
    "acnf": Check(_run_acnf, datum=False),
}


# the exit code of a certificate is that of its first verdict in this list,
# else 0: blocked has its own code, as no precision resolves it, and
# undecided (raise the precision) comes last
_EXIT_CODES = (("fail", 1), ("blocked", 4), ("undecided", 3))


def run_scenario(scn):
    """Execute the requested checks; returns the certificate dict.

    The whole run, from the S-unit lattices to the L-values and pairings,
    is at the scenario's working precision `scn.bits`.
    """
    with working_precision(scn.bits):
        cert = {"scenario": scn.raw, "field": scn.realization.label,
                "bits": scn.bits, "results": []}
        data = None
        if any(CHECKS[c].datum for c in scn.checks):
            try:
                scn.validate_datum()
                cert["hypotheses"] = scn.hypothesis_flags()
            except (DatumError, InputError) as exc:
                cert["datum_error"] = str(exc)
                cert["exit_code"] = 2
                return cert
            data = RubinStarkData(scn.datum)
        for name in scn.checks:
            cert["results"].append(_run_check(scn, data, name))
    verdicts = {e.get("verdict") for e in cert["results"]}
    cert["exit_code"] = next((code for v, code in _EXIT_CODES
                              if v in verdicts), 0)
    return cert


def _run_check(scn, data, name):
    """The certificate entry of one check: the one place where what a
    runner raised becomes a verdict (the map is in the module docstring)."""
    check = CHECKS[name]
    entry = {"check": name}
    if check.datum:
        entry["hypotheses"] = scn.hypothesis_flags()
    try:
        entry["verdict"], entry["witness"] = check.run(scn, data, entry)
    except NonIntegralError as exc:
        entry.update(verdict=check.non_integral, reason=str(exc),
                     witness={"non_integral_pairing": repr(exc.witness)})
    except Undecided as exc:
        entry.update(verdict="undecided", reason=str(exc),
                     limit_radius=_radius_str(exc.radius))
    except (UnsupportedCaseError, CapacityError) as exc:
        entry.update(verdict="unsupported", reason=str(exc))
    except CertificationError as exc:
        entry.update(verdict="fail", witness=str(exc))
    except (DatumError, InputError, ConfigError) as exc:
        entry.update(verdict="blocked", reason=str(exc))
    return entry


def load_scenario(path):
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}")
    return Scenario(spec)


def certificate_summary(cert):
    if "load_error" in cert:
        return f"[{cert['path']}] config error: {cert['load_error']}"
    if "error" in cert:
        return f"[{cert['path']}] error: {cert['error']}"
    lines = []
    label = cert.get("field", "?")
    if "datum_error" in cert:
        lines.append(f"[{label}] datum error: {cert['datum_error']}")
        return "\n".join(lines)
    for entry in cert["results"]:
        verdict = entry.get("verdict", "?")
        extra = ""
        if entry.get("max_radius"):
            extra = f" (max radius {entry['max_radius']})"
        if entry.get("residual_radius"):
            extra = f" (residual radius {entry['residual_radius']})"
        if entry.get("reason"):
            extra += f" [{entry['reason']}]"
        lines.append(f"[{label}] {entry['check']}: {verdict.upper()}{extra}")
    return "\n".join(lines)
