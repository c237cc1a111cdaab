"""Scenario harness: validates Rubin data (S, V, T), runs the identity,
integrality, Fitting-ideal, and annihilation checks end-to-end on concrete
abelian extensions of Q, and emits re-verifiable certificates.

Verdicts are "pass" / "fail" / "undecided" / "blocked" / "unsupported";
undecided always carries the limiting radius and is distinct from failure.
Raising the precision can only resolve undecided verdicts, never flip a
pass or fail (every pass is backed by an exact witness or a certified
enclosure).
"""

import itertools
import json
from fractions import Fraction

from . import hnf
from .ball import Ball, CBall, CertificationError, Undecided, ball_det, \
    ball_log, gauss_solve, working_precision
from .biquad import BiquadField, BiquadSUnitLattice, biquad_places
from .grpring import AbelianGroup, GroupRingElement, InputError, Subgroup, \
    norm_element
from .lfun import (AbelianFieldRealization, DirichletChar, LSpec,
                   UnresolvedOrderError, bernoulli_value, l_jet,
                   stickelberger_element, theoretical_order,
                   validate_rubin_shape)
from .multilin import (GLattice, NonIntegralError, WedgeElement,
                       all_dual_pairings, det_pairing, image_lattice,
                       interior_contract, norm_decomposition_residual,
                       scaled_inclusion)
from .numfld import (DatumError, QuadField, class_number, fundamental_unit,
                     fundamental_unit_log, kronecker, ray_class,
                     s_unit_lattice)
from .sublat import count_avoiding, enumerate_omega_star, norm_sum_identity
from .zideal import (FiniteGModule, GIdealLattice, Presentation,
                     UnsupportedCaseError, annihilator,
                     augmentation_ideal_power, fitting_from_extension,
                     fitting_ideal, ideal_from_generators)

CHECK_ALIASES = {"lemma41": "norm_identity", "prop42": "norm_decomposition"}
KNOWN_CHECKS = ["norm_identity", "norm_decomposition", "congruence",
                "sign_criterion", "rs_integrality", "fitting_equality",
                "annihilation", "igc_membership", "acnf"]


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
    converted: `p` and `m` integers, `range` two integers, `signs` a list
    of integers."""
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
    if "signs" in out:
        out["signs"] = [_config_int(a, "params.signs entry")
                        for a in _config_list(out["signs"], "params.signs")]
    return out


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
        self.order = spec.get("order")
        if self.order is not None:
            self.order = _config_int(self.order, "order")
        field = spec.get("field", {"type": "Q"})
        if not isinstance(field, dict):
            raise ConfigError(f"field must be a JSON object, got {field!r}")
        self.field_type = field.get("type", "Q")
        if self.field_type == "Q":
            self.realization = AbelianFieldRealization.rationals()
            self.field = "Q"
        elif self.field_type == "quad":
            D = _config_int(field.get("disc"), "disc")
            self.realization = AbelianFieldRealization.quadratic(D)
            self.field = QuadField(D)
        elif self.field_type == "multiquad":
            discs = [_config_int(d, "discs entry")
                     for d in _config_list(field.get("discs"), "discs")]
            self.realization = AbelianFieldRealization.multiquadratic(discs)
            self.field = BiquadField(*self.realization.subfield_discs[:2])
        elif self.field_type == "generic":
            kernel = [_config_int(g, "kernel entry") for g in _config_list(
                field.get("kernel", []), "kernel")]
            degree = field.get("degree")
            self.realization = AbelianFieldRealization(
                _config_int(field.get("modulus"), "modulus"),
                kernel, expected_degree=None if degree is None
                else _config_int(degree, "degree"))
            self.field = None
        else:
            raise ConfigError(f"unknown field type {self.field_type!r}")
        self.S = _config_places(spec.get("S", []), "S")
        self.V = _config_places(spec.get("V", []), "V")
        self.T = [_config_int(q, "T entry")
                  for q in _config_list(spec.get("T", []), "T")]
        checks = []
        for c in _config_list(spec.get("checks", []), "checks"):
            c = CHECK_ALIASES.get(c, c)
            if c not in KNOWN_CHECKS:
                raise ConfigError(f"unknown check {c!r}")
            checks.append(c)
        self.checks = checks
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"params must be a JSON object, got {params!r}")
        self.params = _config_params(params)
        self._validated = False

    def needs_datum(self):
        return any(c in ("rs_integrality", "fitting_equality", "annihilation",
                         "igc_membership", "norm_decomposition",
                         "sign_criterion") for c in self.checks)

    def validate_datum(self):
        """(H1)-(H3) plus the recorded theorem-hypothesis flags."""
        S, V, T = validate_rubin_shape(self.realization, self.S, self.V,
                                       self.T)
        self.S, self.V, self.T = S, V, T
        # (H3) via torsion arithmetic
        from .numfld import _check_torsion_killed
        if self.field == "Q":
            _check_torsion_killed("Q", T)
        elif isinstance(self.field, QuadField):
            _check_torsion_killed(self.field, T)
        elif isinstance(self.field, BiquadField):
            # torsion of a real biquadratic field is {+-1}
            if not any(q != 2 for q in T):
                raise DatumError("(H3) fails: -1 = 1 at every place above T")
        self._validated = True

    def hypothesis_flags(self):
        flags = {"S": list(self.S), "V": list(self.V), "T": list(self.T)}
        flags["thm1_bound"] = len(self.S) > len(self.V) + 1
        invf = self.realization.group.invariant_factors
        if invf and all(f == invf[0] for f in invf):
            from sympy import isprime
            p = invf[0]
            if isprime(p):
                m = len(invf)
                sp = ray_class("Q", self.S, self.T).p_rank(p)
                bound = max(len(self.V) + 2,
                            len(self.V) - sp + (p - 1) * (m - 1) + 3)
                flags.update({"p": p, "m": m, "s_p": sp,
                              "thm2_bound": len(self.S) >= bound,
                              "thm2_required_S": bound})
        return flags

    def __repr__(self):
        return (f"Scenario({self.realization.label}, S={self.S}, "
                f"V={self.V}, T={self.T}, checks={self.checks})")


# -- shared pipeline pieces ---------------------------------------------------

def place_permutation(lattice, element):
    """Permutation of the lattice's place list under a group element."""
    if lattice.field == "Q":
        return list(range(len(lattice.places)))
    if isinstance(lattice, BiquadSUnitLattice):
        out = []
        signs = lattice.field.signs_of(element)
        for i, w in enumerate(lattice.places):
            if w.kind == "real":
                target = (w.signs[0] * signs[0], w.signs[1] * signs[1])
                for j, w2 in enumerate(lattice.places):
                    if w2.kind == "real" and (w2.signs[0], w2.signs[1]) == target:
                        out.append(j)
                        break
            else:
                out.append(i)
        return out
    # quadratic
    if element == (0,):
        return list(range(len(lattice.places)))
    return lattice.place_action


def place_index_over(lattice, v):
    """Index of the distinguished place above the rational place v."""
    want = "inf" if v == "inf" else str(int(v))
    for i, w in enumerate(lattice.places):
        label = w.label
        if v == "inf" and label.startswith("inf"):
            return i
        if v != "inf" and label.rstrip("+-") == want:
            return i
    raise InputError(f"no place over {v}")


def sigma_matrices(lattice, group):
    """Action matrices (one per group generator) on lattice coordinates."""
    if lattice.field == "Q":
        return []
    if isinstance(lattice, BiquadSUnitLattice):
        gens = [(1, 0), (0, 1)]
        return [lattice.sigma_matrix(g) for g in gens]
    return [lattice.sigma_matrix]


class RubinStarkData:
    """Cached per-scenario pipeline state."""

    def __init__(self, scn):
        self.scn = scn
        self._lattice = None
        self._theta = None
        self._epsilon = None
        self._im = None
        self._pairings = None

    @property
    def group(self):
        return self.scn.realization.group

    def lattice(self):
        if self._lattice is None:
            scn = self.scn
            if isinstance(scn.field, BiquadField):
                self._lattice = BiquadSUnitLattice(scn.field, scn.S)
            else:
                self._lattice = s_unit_lattice(scn.field, scn.S, scn.T)
        return self._lattice

    def theta(self):
        if self._theta is None:
            self._theta = stickelberger_element(
                self.scn.realization, self.scn.S, self.scn.V, self.scn.T,
                truncation=self.scn.order)
        return self._theta

    def t_glattice(self):
        """O^x_{K,S,T} as a GLattice in lattice coordinates."""
        lat = self.lattice()
        if isinstance(lat, BiquadSUnitLattice):
            raise UnsupportedCaseError(
                "T-unit lattices of composita are out of desk scope")
        rank = lat.rank
        rows = lat.t_lattice_hnf()
        return GLattice(self.group, rank, rows, sigma_matrices(lat, self.group))

    def cover(self):
        rank = self.lattice().rank
        return [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def epsilon(self):
        """The Rubin-Stark wedge element in lattice coordinates."""
        if self._epsilon is not None:
            return self._epsilon
        scn = self.scn
        theta = self.theta()
        r = len(scn.V)
        lat = self.lattice()
        if r == 0:
            eps = WedgeElement(self.group, 0, self.cover(),
                               {(): theta.convert("rat")
                                if theta.ring.is_exact() else theta})
            self._epsilon = eps
            return eps
        if theta.is_zero():
            coeffs = {}
            self._epsilon = WedgeElement(self.group, r, self.cover(), coeffs)
            return self._epsilon
        if r == 1:
            coords = self._solve_degree_one(theta)
            coeffs = {(i,): GroupRingElement.one(self.group, "ball").scale(c)
                      for i, c in enumerate(coords)}
            self._epsilon = WedgeElement(self.group, 1, self.cover(), coeffs)
            return self._epsilon
        if self.group.order == 1:
            coeff = self._solve_full_wedge(theta, r)
            key = tuple(range(lat.rank))
            coeffs = {key: GroupRingElement.one(self.group, "ball")
                      .scale(coeff)}
            self._epsilon = WedgeElement(self.group, r, self.cover(), coeffs)
            return self._epsilon
        raise UnsupportedCaseError(
            "wedge degree >= 2 over a nontrivial group is out of desk scope")

    def _solve_degree_one(self, theta):
        scn = self.scn
        lat = self.lattice()
        group = self.group
        v1 = scn.V[0]
        v0 = next(v for v in scn.S if v not in scn.V)
        idx1 = place_index_over(lat, v1)
        idx0 = place_index_over(lat, v0)
        n = len(lat.places)
        rhs = [Ball(0) for _ in range(n)]
        for el, coeff in zip(group.elements, theta.coeffs):
            c = coeff if isinstance(coeff, Ball) else Ball(coeff)
            perm = place_permutation(lat, el)
            rhs[perm[idx1]] = rhs[perm[idx1]] + c
            rhs[perm[idx0]] = rhs[perm[idx0]] - c
        lam = lat.log_matrix()
        cols = [j for j in range(n) if j != idx0]
        A = [[lam[g][j] for g in range(lat.rank)] for j in cols]
        b = [rhs[j] for j in cols]
        return gauss_solve(A, b)

    def _solve_full_wedge(self, theta, r):
        scn = self.scn
        lat = self.lattice()
        assert lat.rank == r, "full-wedge solve needs |V| = |S| - 1"
        v0 = next(v for v in scn.S if v not in scn.V)
        idx0 = place_index_over(lat, v0)
        dropped = [j for j in range(len(lat.places)) if j != idx0]
        # sign of the arrangement of V-places inside the dropped list
        positions = [dropped.index(place_index_over(lat, v)) for v in scn.V]
        sign = _permutation_sign(positions)
        lam = lat.log_matrix()
        M = [[lam[g][j] for g in range(lat.rank)] for j in dropped]
        det = ball_det(M)
        th = theta.coeffs[0]
        thb = th if isinstance(th, Ball) else Ball(th)
        return (thb * sign) / det

    def im_lattice(self):
        """im(epsilon) with its pairing witnesses; may raise NonIntegral or
        Undecided; exact principal ideal for |V| = 0."""
        if self._im is not None:
            return self._im
        scn = self.scn
        eps = self.epsilon()
        if len(scn.V) == 0:
            theta = self.theta()
            vec = theta.int_vector()  # raises InputError when non-integral
            self._im = ideal_from_generators(
                [GroupRingElement(self.group, "int", vec)])
            self._pairings = [(("theta",), theta)]
            return self._im
        M = self.t_glattice()
        pairings = all_dual_pairings(eps, M)
        self._pairings = pairings
        vectors = []
        for f_idx, val in pairings:
            if val.ring.is_exact():
                vectors.append(val.int_vector())
            else:
                vectors.append(val.certified_int_vector())
        if not vectors:
            self._im = GIdealLattice.zero(self.group)
        else:
            self._im = GIdealLattice.from_vectors(self.group, vectors,
                                                  stabilize=True)
        return self._im

    def pairings(self):
        self.im_lattice()
        return self._pairings


def _permutation_sign(seq):
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def max_pairing_radius(pairings):
    out = Fraction(0)
    for _idx, val in pairings:
        if val.ring.is_exact():
            continue
        for c in val.coeffs:
            if isinstance(c, Ball):
                out = max(out, c.rad())
            elif isinstance(c, CBall):
                out = max(out, c.rad())
    return out


# -- individual checks --------------------------------------------------------

def check_norm_identity(p, m):
    """The subgroup-norm identity over (Z/p)^m, exactly."""
    element = norm_sum_identity(p, m)
    hs = enumerate_omega_star(p, m)
    avoiding, containing = count_avoiding(p, m, (1,) + (0,) * (m - 1)) \
        if m >= 1 else (0, 0)
    return {
        "check": "norm_identity",
        "verdict": "pass",
        "witness": {
            "p": p, "m": m,
            "constant": p ** (m - 1),
            "proper_subgroups": hs.count_proper(),
            "avoiding_count": avoiding,
            "containing_count": containing,
        },
    }


def check_congruence_biquadratic(a):
    """lambda = sum a_i e_i lies in Z_(2)[G] iff prod a_i = 1 (mod 4).

    a: four odd integers; returns the verdict and asserts the equivalence
    of the coefficient condition with the product condition.
    """
    if len(a) != 4 or any(x % 2 == 0 for x in a):
        raise InputError("need four odd integers")
    group = AbelianGroup((2, 2))
    chars = group.all_characters()
    in_z2 = True
    for sigma in group.elements:
        total = sum(ai * (1 if chi.value_exponent(sigma) == 0 else -1)
                    for ai, chi in zip(a, chars))
        if total % 4 != 0:
            in_z2 = False
            break
    product_condition = (a[0] * a[1] * a[2] * a[3]) % 4 == 1
    assert in_z2 == product_condition, \
        f"congruence criterion equivalence failed at {a}"
    return in_z2


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


def sign_criterion_matrix(scn, data):
    """The log matrix over the Z-basis of O^x_{K,S,T} and the places above V."""
    lat = data.lattice()
    if isinstance(lat, BiquadSUnitLattice):
        raise UnsupportedCaseError(
            "sign criterion needs the T-unit lattice; composita are out of "
            "desk scope")
    rows = lat.t_lattice_hnf()
    lam = lat.log_matrix()
    v_place_idx = [i for i, w in enumerate(lat.places)
                   if any((v == "inf" and w.label.startswith("inf"))
                          or (v != "inf" and w.label.rstrip("+-") == str(v))
                          for v in scn.V)]
    if len(rows) != len(v_place_idx):
        raise InputError(
            f"log matrix is {len(rows)} x {len(v_place_idx)}, not square")
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


def run_rs_integrality(scn, data):
    entry = {"check": "rs_integrality", "hypotheses": scn.hypothesis_flags()}
    try:
        im = data.im_lattice()
        pairings = data.pairings()
        entry["verdict"] = "pass"
        entry["witness"] = {
            "pairing_vectors": [
                (list(idx) if isinstance(idx, tuple) else idx,
                 val.int_vector() if val.ring.is_exact()
                 else val.certified_int_vector())
                for idx, val in pairings],
            "image_hnf": [list(r) for r in im.basis()],
            "saturation_index": getattr(data.lattice(), "saturation_index", 1),
        }
        entry["max_radius"] = _radius_str(max_pairing_radius(pairings))
    except NonIntegralError as exc:
        entry["verdict"] = "fail"
        entry["witness"] = {"non_integral_pairing": repr(exc.witness)}
    except Undecided as exc:
        _mark_undecided(entry, exc)
    return entry


def _mark_undecided(entry, exc):
    """Give `entry` the verdict undecided, with the radius that limited the
    certification and the reason (for a PrecisionError: the precision floor
    that was not met)."""
    entry["verdict"] = "undecided"
    entry["limit_radius"] = _radius_str(exc.radius)
    entry["reason"] = str(exc)
    return entry


def _radius_str(r):
    if r is None:
        return None
    return f"{float(r):.3e}"


def selmer_transpose_fitting(scn, data, ray):
    """Fitt^{|V|}(Sel^tr) with the paper-shaped splitting; returns
    (ideal, method) or raises UnsupportedCaseError."""
    group = data.group
    nV = len(scn.V)
    if ray.order() == 1:
        # Sel^tr = X_{K,S}: present it from the place module
        lat = data.lattice()
        X = x_glattice(lat, group)
        pres = glattice_presentation(X)
        return fitting_ideal(pres, nV), "presentation of X_{K,S}"
    # nontrivial class part: need full decomposition at S \ V
    for v in scn.S:
        if v in scn.V:
            continue
        if not _full_decomposition(scn, v):
            raise UnsupportedCaseError(
                f"place {v} outside V lacks full decomposition group")
    d = len(scn.S) - len(scn.V)
    pres = _assembled_selmer_presentation(ray.module, d, nV)
    fit = fitting_ideal(pres, nV)
    if group.rank == 1 and group.invariant_factors[0] in (2, 3, 5, 7):
        closed = fitting_from_extension(ray.module, d, group)
        assert closed == fit, "closed form disagrees with direct minors"
    return fit, "Cl + trivial-action extension presentation"


def _full_decomposition(scn, v):
    deg = scn.realization.degree()
    if deg == 1:
        return True
    if v == "inf":
        return deg == 2 and not scn.realization.splits_completely("inf")
    if isinstance(scn.field, QuadField):
        return scn.field.splitting(int(v)) != "split"
    if isinstance(scn.field, BiquadField):
        try:
            w = biquad_places(scn.field, int(v))[0]
            return w.e * w.f == 4
        except UnsupportedCaseError:
            return False
    return False


def _assembled_selmer_presentation(cl_module, d, nV):
    """Presentation of Cl + Z^{d-1}(trivial) + Z[G]^{nV} (free part)."""
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
    if group.rank:
        gens = [tuple(1 if l == j else 0 for l in range(group.rank))
                for j in range(group.rank)]
        for g in gens:
            perm = place_permutation(lattice, g)
            P = [[1 if perm[i] == j else 0 for j in range(n)]
                 for i in range(n)]
            mats.append(P)
    return GLattice(group, n, basis, mats)


def glattice_presentation(M):
    """Z[G]-presentation of a G-lattice: generators = Z-basis, relations =
    the kernel of the evaluation map from the free module."""
    group = M.group
    basis = M.basis()
    t = len(basis)
    n = group.order
    rows = []
    for i in range(t):
        for el in group.elements:
            rows.append(M.act_element(el, basis[i]))
    ker = hnf.kernel(rows, ambient_dim=M.ambient)
    rels = []
    for row in ker:
        rel = [GroupRingElement(group, "int", row[i * n:(i + 1) * n])
               for i in range(t)]
        rels.append(rel)
    return Presentation(group, t, rels)


def run_fitting_equality(scn, data):
    entry = {"check": "fitting_equality",
             "hypotheses": scn.hypothesis_flags()}
    entry["sharp_convention"] = (
        "Fitt(Sel)^# is computed as Fitt(Sel^tr) of the transpose module")
    try:
        ray = ray_class(scn.field, scn.S, scn.T)
        fit, method = selmer_transpose_fitting(scn, data, ray)
        im = data.im_lattice()
        contains_1 = fit.contains(im)
        contains_2 = im.contains(fit)
        equal = contains_1 and contains_2
        entry["verdict"] = "pass" if equal else "fail"
        entry["witness"] = {
            "method": method,
            "image_hnf": [list(r) for r in im.basis()],
            "fitting_hnf": [list(r) for r in fit.basis()],
            "double_containment": [contains_1, contains_2],
            "class_group_orders": list(ray.module.orders),
        }
    except UnsupportedCaseError as exc:
        entry["verdict"] = "unsupported"
        entry["reason"] = str(exc)
    except NonIntegralError as exc:
        entry["verdict"] = "fail"
        entry["witness"] = {"non_integral_pairing": repr(exc.witness)}
    except Undecided as exc:
        _mark_undecided(entry, exc)
    return entry


def run_annihilation(scn, data):
    entry = {"check": "annihilation", "hypotheses": scn.hypothesis_flags()}
    try:
        ray = ray_class(scn.field, scn.S, scn.T)
        im = data.im_lattice()
        module = ray.module
        if module.order() == 1:
            entry["verdict"] = "pass"
            entry["witness"] = {"class_group": "trivial", "vacuous": True,
                                "image_hnf": [list(r) for r in im.basis()]}
            return entry
        killed = []
        k = len(module.orders)
        for row in im.basis():
            x = GroupRingElement(data.group, "int", row)
            for j in range(k):
                e_j = tuple(1 if l == j else 0 for l in range(k))
                out = module.act_group_ring(x, e_j)
                if any(out):
                    entry["verdict"] = "fail"
                    entry["witness"] = {"annihilator_candidate": row,
                                        "generator": j,
                                        "nonzero_image": list(out)}
                    return entry
            killed.append(row)
        entry["verdict"] = "pass"
        entry["witness"] = {
            "image_hnf": killed,
            "class_group_orders": list(module.orders),
            "action": module.action,
        }
    except NonIntegralError as exc:
        entry["verdict"] = "blocked"
        entry["reason"] = "image of the Rubin-Stark element is not integral"
        entry["witness"] = {"non_integral_pairing": repr(exc.witness)}
    except InputError as exc:
        entry["verdict"] = "blocked"
        entry["reason"] = str(exc)
    except Undecided as exc:
        _mark_undecided(entry, exc)
    return entry


def run_igc_membership(scn, data):
    """Membership of all pairings in I_G^c for the recorded exponent c."""
    entry = {"check": "igc_membership", "hypotheses": scn.hypothesis_flags()}
    flags = entry["hypotheses"]
    if "p" not in flags:
        entry["verdict"] = "unsupported"
        entry["reason"] = "group is not p-elementary"
        return entry
    p, m, sp = flags["p"], flags["m"], flags["s_p"]
    c = len(scn.S) - len(scn.V) + sp - (p - 1) * (m - 1) - 2
    c = max(c, 0)
    if len(scn.S) < len(scn.V) + 2:
        c = 0
    entry["exponent"] = c
    try:
        ideal = augmentation_ideal_power(data.group, c)
        pairings = data.pairings()
        for idx, val in pairings:
            vec = val.int_vector() if val.ring.is_exact() \
                else val.certified_int_vector()
            if not ideal.contains_vector(vec):
                entry["verdict"] = "fail"
                entry["witness"] = {"pairing": list(vec), "exponent": c}
                return entry
        entry["verdict"] = "pass"
        entry["witness"] = {
            "exponent": c,
            "ideal_hnf": [list(r) for r in ideal.basis()],
            "pairing_count": len(pairings)}
        entry["max_radius"] = _radius_str(max_pairing_radius(pairings))
    except NonIntegralError as exc:
        entry["verdict"] = "blocked"
        entry["witness"] = {"non_integral_pairing": repr(exc.witness)}
    except Undecided as exc:
        _mark_undecided(entry, exc)
    return entry


def run_norm_decomposition(scn, data):
    """The subfield-norm decomposition of the Rubin-Stark element for a real
    biquadratic compositum with V = {inf}."""
    entry = {"check": "norm_decomposition",
             "hypotheses": scn.hypothesis_flags()}
    if not isinstance(scn.field, BiquadField):
        entry["verdict"] = "unsupported"
        entry["reason"] = "norm decomposition runs on biquadratic composita"
        return entry
    if scn.V != ["inf"]:
        entry["verdict"] = "unsupported"
        entry["reason"] = "implemented for V = {inf}"
        return entry
    field = scn.field
    lat = data.lattice()
    eps_K = data.epsilon()
    group = data.group
    # subfield elements, included into compositum coordinates
    parts = []
    sub_witness = []
    for idx, D in enumerate(field.discs):
        sub_real = AbelianFieldRealization.quadratic(D)
        sub_scn = _SubScenario(sub_real, QuadField(D), scn.S, scn.V, scn.T)
        sub_data = RubinStarkData(sub_scn)
        sub_data._lattice = lat.sub_lattices[idx]
        eps_sub = sub_data.epsilon()
        # map coordinates into the compositum basis
        incl = {}
        for (j,), z in eps_sub.coeffs.items():
            co = lat.subfield_generator_coords(idx, j)
            scalar = z.coeffs[z.group.index[z.group.identity()]]
            for bi, c in enumerate(co):
                if c:
                    key = (bi,)
                    term = GroupRingElement.one(group, "ball").scale(
                        scalar * Fraction(c))
                    incl[key] = incl[key] + term if key in incl else term
        part = WedgeElement(group, 1, data.cover(), incl)
        parts.append(scaled_inclusion(part, 2, r=1))
        sub_witness.append({"disc": D,
                            "coords": [repr(v) for v in
                                       _coords_list(eps_sub, lat.sub_lattices[idx].rank)]})
    # base-field element over Q
    q_scn = _SubScenario(AbelianFieldRealization.rationals(), "Q", scn.S,
                         scn.V, scn.T)
    q_data = RubinStarkData(q_scn)
    eps_q = q_data.epsilon()
    base_incl = {}
    for (j,), z in eps_q.coeffs.items():
        q_gen = q_data.lattice().gens[j]
        co = _rational_inclusion_coords(lat, q_gen)
        scalar = z.coeffs[0]
        for bi, c in enumerate(co):
            if c:
                key = (bi,)
                term = GroupRingElement.one(group, "ball").scale(
                    scalar * Fraction(c))
                base_incl[key] = base_incl[key] + term if key in base_incl \
                    else term
    eps_base = WedgeElement(group, 1, data.cover(), base_incl)
    eps_base = scaled_inclusion(eps_base, 4, r=1)
    verdict, radius = norm_decomposition_residual(eps_K, parts + [eps_base],
                                                  eps_base, 2, 2)
    entry["residual_radius"] = _radius_str(radius)
    entry["witness"] = {"subfields": sub_witness,
                        "epsilon_coords": [repr(v) for v in
                                           _coords_list(eps_K, lat.rank)]}
    if verdict is True:
        entry["verdict"] = "pass"
    elif verdict is False:
        entry["verdict"] = "fail"
    else:
        entry["verdict"] = "undecided"
        entry["limit_radius"] = _radius_str(radius)
    return entry


def _coords_list(eps, rank):
    out = []
    for i in range(rank):
        z = eps.coefficient((i,))
        if z is None:
            out.append(0)
        else:
            out.append(z.coeffs[z.group.index[z.group.identity()]])
    return out


def _rational_inclusion_coords(biquad_lat, q):
    """Coordinates of a rational S-unit in the compositum basis."""
    sub = biquad_lat.sub_lattices[0]
    coords, _tor = sub.express(sub.field.element(Fraction(q)))
    pool_coords = [0] * len(biquad_lat.pool)
    for j, c in enumerate(coords):
        pool_coords[biquad_lat._offsets[0] + j] = c
    return biquad_lat.pool_coords_to_basis(pool_coords)


class _SubScenario:
    """Internal reduced scenario for subfield pipelines."""

    def __init__(self, realization, field, S, V, T):
        self.realization = realization
        self.field = field
        self.S = S
        self.V = V
        self.T = T
        self.order = None

    def hypothesis_flags(self):
        return {}


def run_acnf(dmin=-500, dmax=500, tol=Fraction(1, 10 ** 25)):
    """Analytic class number formula sweep over fundamental discriminants,
    at the working precision in force.

    Positive D: |L'(0, chi_D) - h(D) log eps_D| certified below tol.
    Negative D: L(0, chi_D) = 2 h(D) / w(D) exactly.
    Returns a summary dict.  A residual whose enclosure excludes 0, or an
    exact value that differs, raises CertificationError; a residual that
    contains 0 but is not certified below tol raises Undecided with the
    residual's radius.
    """
    from .numfld import is_fundamental_discriminant
    from sympy import factorint
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
        jet = l_jet(LSpec(chi, S, [], truncation=1))
        h = class_number(D)
        reg = fundamental_unit_log(D)
        resid = jet.coeffs[1] - reg * h
        if resid.is_nonzero():
            raise CertificationError(
                f"ACNF fails at D = {D}: L'(0, chi_D) - h log eps = {resid}")
        lo, hi = resid.endpoints()
        bound = max(abs(lo), abs(hi))
        if bound >= tol:
            raise Undecided(
                f"ACNF residual at D = {D} contains 0 but is not certified "
                f"below {float(tol):.1e}", resid.rad())
        max_resid = max(max_resid, bound)
        checked_pos += 1
    return {"positive": checked_pos, "negative": checked_neg,
            "max_positive_residual": _radius_str(max_resid)}


# -- the runner ---------------------------------------------------------------

def run_scenario(scn):
    """Execute the requested checks; returns the certificate dict.

    The whole run, from the S-unit lattices to the L-values and pairings,
    is at the scenario's working precision `scn.bits`.
    """
    with working_precision(scn.bits):
        cert = {"scenario": scn.raw, "field": scn.realization.label,
                "bits": scn.bits, "results": []}
        if scn.needs_datum():
            try:
                scn.validate_datum()
            except (DatumError, InputError) as exc:
                cert["datum_error"] = str(exc)
                cert["exit_code"] = 2
                return cert
            cert["hypotheses"] = scn.hypothesis_flags()
        data = RubinStarkData(scn)
        for check in scn.checks:
            try:
                if check == "norm_identity":
                    entry = check_norm_identity(scn.params.get("p", 2),
                                                scn.params.get("m", 2))
                elif check == "congruence":
                    entry = _run_congruence(scn.params)
                elif check == "sign_criterion":
                    entry = _run_sign_criterion(scn, data)
                elif check == "rs_integrality":
                    entry = run_rs_integrality(scn, data)
                elif check == "fitting_equality":
                    entry = run_fitting_equality(scn, data)
                elif check == "annihilation":
                    entry = run_annihilation(scn, data)
                elif check == "igc_membership":
                    entry = run_igc_membership(scn, data)
                elif check == "norm_decomposition":
                    entry = run_norm_decomposition(scn, data)
                elif check == "acnf":
                    summary = run_acnf(*scn.params.get("range", [-500, 500]))
                    entry = {"check": "acnf", "verdict": "pass",
                             "witness": summary}
                else:
                    entry = {"check": check, "verdict": "unsupported"}
            except (DatumError, InputError, ConfigError) as exc:
                entry = {"check": check, "verdict": "blocked",
                         "reason": str(exc)}
            except Undecided as exc:
                entry = _mark_undecided({"check": check}, exc)
            except UnresolvedOrderError as exc:
                entry = {"check": check, "verdict": "undecided",
                         "reason": str(exc)}
            except UnsupportedCaseError as exc:
                entry = {"check": check, "verdict": "unsupported",
                         "reason": str(exc)}
            except CertificationError as exc:
                entry = {"check": check, "verdict": "fail",
                         "witness": str(exc)}
            cert["results"].append(entry)
    verdicts = [e.get("verdict") for e in cert["results"]]
    if any(v == "fail" for v in verdicts):
        cert["exit_code"] = 1
    elif any(v in ("undecided", "blocked") for v in verdicts):
        cert["exit_code"] = 3
    else:
        cert["exit_code"] = 0
    return cert


def _run_congruence(params):
    if "signs" in params:
        a = params["signs"]
        ok = check_congruence_biquadratic(a)
        return {"check": "congruence", "verdict": "pass",
                "witness": {"signs": a, "in_Z2": ok,
                            "product_mod_4": (a[0]*a[1]*a[2]*a[3]) % 4}}
    # exhaustive sweep over residues mod 8
    count = 0
    for a in itertools.product((1, 3, 5, 7), repeat=4):
        check_congruence_biquadratic(list(a))
        count += 1
    for a in itertools.product((1, 3), repeat=4):
        check_congruence_biquadratic(list(a))
    return {"check": "congruence", "verdict": "pass",
            "witness": {"exhaustive_patterns": count}}


def _run_sign_criterion(scn, data):
    entry = {"check": "sign_criterion", "hypotheses": scn.hypothesis_flags()}
    try:
        matrix = sign_criterion_matrix(scn, data)
        sign, det = check_sign_criterion(matrix)
        ray = ray_class(scn.field, scn.S, scn.T)
        inside = (len(scn.S) == len(scn.V) + 1) and ray.order() == 1
        entry["verdict"] = "pass"
        entry["witness"] = {"sign": sign,
                            "det_mid": repr(det),
                            "inside_hypotheses": inside}
    except Undecided as exc:
        _mark_undecided(entry, exc)
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
