"""Command-line front end: identity, lvalue, stickelberger, field, verify,
sweep.

Exit codes: 0 all checks passed; 1 some check failed; 2 datum/config error
(malformed places and fields included); 3 undecided (not a failure: raise
--bits); 4 blocked (no precision decides it: the datum is outside what
the check can decide); 5 a scenario of `sweep` raised an exception that
no check turns into a verdict (a fault of the program).  `verify` gives
the code of its worst verdict, and `sweep` the worst code of its
scenarios, in the order 5, 2, 1, 4, 3, 0.

`sweep` runs every *.json file of a directory.  A file that is not a valid
scenario (a certificate written by `--out`, say) is reported as a config
error for that file, with exit code 2, and a scenario that raises is
reported with the exception's type and message, with exit code 5; the
other files still run.

`--bits` means the same for every command.  Given, it is the working
precision of the whole run: for `verify` and `sweep` it overrides the
`bits` of every scenario.  Not given, `verify` and `sweep` run each
scenario at its own `bits` (128 when the file has none), and the other
commands run at 128 bits.
"""

import argparse
import json
import sys
import traceback

from .ball import (DEFAULT_PREC, CertificationError, Undecided,
                   working_precision)
from .grpring import InputError, coeff_json
from .hnf import diagonalize_relations
from .lfun import AbelianFieldRealization, LSpec, l_jet, stickelberger_element
from .numfld import (ClassGroup, DatumError, QuadField, RubinDatum,
                     _normalize_places, fundamental_unit,
                     is_fundamental_discriminant)
from .sublat import CapacityError, norm_sum_identity, enumerate_omega_star
from .verify import (ConfigError, certificate_summary, field_of,
                     load_scenario, run_scenario)


def _bits(text):
    bits = int(text)
    if bits < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {bits}")
    return bits


def main(argv=None):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bits", type=_bits, default=argparse.SUPPRESS,
                        help="working precision in bits; overrides a "
                             "scenario's own bits (default: the scenario's, "
                             "else 128)")
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="parallel scenario workers for sweep")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write the JSON report to this path")
    parser = argparse.ArgumentParser(
        prog="stark-lab", parents=[common],
        description="Exact and certified-numeric checks for equivariant "
                    "L-value identities over abelian fields")
    parser.set_defaults(bits=None, jobs=1, out=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identity", parents=[common],
                          help="expand the subgroup-norm identity on (Z/p)^m")
    p_id.add_argument("--p", type=int, required=True)
    p_id.add_argument("--m", type=int, required=True)

    p_lv = sub.add_parser("lvalue", parents=[common],
                          help="certified leading term at s = 0")
    p_lv.add_argument("--modulus", type=int, required=True)
    p_lv.add_argument("--char-index", type=int, default=0,
                      help="index into the character list of the modulus "
                           "realization (0 = trivial)")
    p_lv.add_argument("--kernel", type=int, nargs="*", default=None,
                      help="kernel generators of the realization (defaults "
                           "to the quadratic realization for fundamental "
                           "discriminants)")
    p_lv.add_argument("--S", type=str, nargs="*", default=["inf"])
    p_lv.add_argument("--T", type=int, nargs="*", default=[])

    p_st = sub.add_parser("stickelberger", parents=[common],
                          help="Stickelberger element of an abelian field")
    p_st.add_argument("--field", required=True,
                      help='"Q", a fundamental discriminant, or "d1,d2"')
    p_st.add_argument("--S", type=str, nargs="+", required=True)
    p_st.add_argument("--V", type=str, nargs="*", default=[])
    p_st.add_argument("--T", type=int, nargs="*", default=[])

    p_f = sub.add_parser("field", parents=[common], help="quadratic field data")
    p_f.add_argument("--disc", type=int, required=True)
    p_f.add_argument("what", choices=["classgroup", "unit"])

    p_v = sub.add_parser("verify", parents=[common], help="run a scenario file")
    p_v.add_argument("scenario", help="path to a scenario JSON file")

    p_s = sub.add_parser("sweep", parents=[common], help="run every scenario in a directory")
    p_s.add_argument("directory")

    args = parser.parse_args(argv)
    try:
        with working_precision(args.bits or DEFAULT_PREC):
            return _dispatch(args)
    except (DatumError, ConfigError, InputError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Undecided as exc:
        print(f"undecided: {exc} (raise --bits)", file=sys.stderr)
        return 3
    except CertificationError as exc:
        print(f"fail: {exc}", file=sys.stderr)
        return 1


def _dispatch(args):
    if args.command == "identity":
        hs = enumerate_omega_star(args.p, args.m)
        element = norm_sum_identity(hs)
        print(f"sum of subgroup norms over {hs.count_proper()} hyperplanes "
              f"+ correction = {args.p}^{args.m - 1}")
        print(f"identity element: {element!r}")
        print("PASS")
        return 0

    if args.command == "lvalue":
        if args.kernel is None:
            if not is_fundamental_discriminant(args.modulus) \
                    and args.modulus != 1:
                print("error: give --kernel or a fundamental discriminant",
                      file=sys.stderr)
                return 2
            real = AbelianFieldRealization.rationals() if args.modulus == 1 \
                else AbelianFieldRealization.quadratic(args.modulus)
        else:
            real = AbelianFieldRealization(args.modulus, args.kernel)
        chars = real.group.all_characters()
        if not 0 <= args.char_index < len(chars):
            print(f"error: char index out of range 0..{len(chars)-1}",
                  file=sys.stderr)
            return 2
        chi = real.dirichlet(chars[args.char_index])
        S = _normalize_places(args.S)
        lead = l_jet(LSpec(chi, S, args.T))
        report = {
            "modulus": args.modulus,
            "char_index": args.char_index,
            "S": S, "T": args.T,
            "order": lead.order,
            "value": coeff_json(lead.value),
            "params": lead.params,
        }
        _emit(report, args.out)
        return 0

    if args.command == "stickelberger":
        datum = RubinDatum.of(*_field(args.field), args.S, args.V, args.T)
        theta = stickelberger_element(datum)
        _emit(theta.to_json(), args.out)
        return 0

    if args.command == "field":
        D = args.disc
        QuadField(D)      # a fundamental discriminant within the desk bound
        if args.what == "classgroup":
            cg = ClassGroup(D)
            inv, _, _ = diagonalize_relations(cg.structure.relation_rows,
                                              len(cg.structure.leaders))
            _emit({"disc": D, "h": cg.h,
                   "invariant_factors": inv or [1]}, args.out)
            return 0
        if D <= 0:
            print("error: units require a real quadratic field",
                  file=sys.stderr)
            return 2
        eps = fundamental_unit(D)
        from .ball import ball_log
        _emit({"disc": D,
               "unit": {"a": str(eps.a), "b": str(eps.b),
                        "sqrt": QuadField(D).m},
               "norm": int(eps.norm()),
               "log": ball_log(eps.embedding_ball()).to_json()}, args.out)
        return 0

    if args.command == "verify":
        scn = load_scenario(args.scenario)
        if args.bits is not None:
            scn.bits = args.bits
        cert = run_scenario(scn)
        print(certificate_summary(cert))
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(cert, fh, indent=2, default=str)
        return cert["exit_code"]

    if args.command == "sweep":
        import glob
        import os
        paths = sorted(glob.glob(os.path.join(args.directory, "*.json")))
        if not paths:
            print("error: no scenario files found", file=sys.stderr)
            return 2
        certs = _run_many(paths, args.jobs, args.bits)
        for cert in certs:
            print(certificate_summary(cert))
        codes = [c["exit_code"] for c in certs]
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(certs, fh, indent=2, default=str)
        return next((c for c in (5, 2, 1, 4, 3) if c in codes), 0)
    raise AssertionError("unreachable")


def _run_many(paths, jobs, bits):
    if jobs <= 1:
        return [_run_one_path(p, bits) for p in paths]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_one_path, paths, [bits] * len(paths)))


def _run_one_path(path, bits):
    """The certificate of one scenario file, run at `bits` when given, else
    at the file's own; or, when the file does not load as a scenario (a
    field past a desk bound included), a record of the error with exit
    code 2; or, when the run raises, a record of the exception with exit
    code 5, so that the sweep goes on."""
    try:
        scn = load_scenario(path)
    except (ConfigError, InputError, DatumError, CapacityError) as exc:
        return {"path": path, "load_error": str(exc), "exit_code": 2}
    if bits is not None:
        scn.bits = bits
    try:
        return run_scenario(scn)
    except Exception as exc:  # a fault of the program, reported per file
        return {"path": path, "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(), "exit_code": 5}


def _field(text):
    """(realization, field) of a --field value (`verify.field_of`); three
    or more discriminants give the realization alone, all theta reads."""
    if text.strip().upper() == "Q":
        return field_of({"type": "Q"})
    try:
        discs = [int(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f'a field is "Q", a fundamental discriminant or '
                         f'"d1,d2", got {text!r}') from None
    if len(discs) > 2:
        return AbelianFieldRealization.multiquadratic(discs), None
    return field_of({"type": "multiquad", "discs": discs} if len(discs) > 1
                    else {"type": "quad", "disc": discs[0]})


def _emit(obj, out):
    text = json.dumps(obj, indent=2, default=str)
    print(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")


if __name__ == "__main__":
    sys.exit(main())
