"""Command-line front end: identity suites, coefficient-table experiments,
grading switches on built-in or JSON-supplied algebras, and the toral
comparison demo.

Reports are text (default) or JSON.  The JSON document carries a
versioned ``schema`` field and no timestamps, so repeating a command with
the same seed produces byte-identical output.  Exit codes: 0 when every
check passes, 1 when a mathematical hypothesis or verification fails, 2
for usage and configuration errors.
"""

import argparse
import collections
import functools
import json
import random
import sys

from .fields import GF, is_prime
from .galg import GradedAlgebra, LinearMap, _coeff_parse, direct_sum, \
    truncated_poly, truncated_poly_derivation, witt
from .laguerre import c_coefficients, check_all_identities, \
    check_lemma_forms, check_lemma_product_identity, in_prime_star, \
    strade_operator_form_check, zero_pair_closed_form
from .switch import HypothesisError, VerificationError, switch_grading
from .toral import RestrictedLie, compare_switch_to_toral

DEFAULT_PRIMES = (2, 3, 5, 7, 11, 13)
DEFAULT_DIM_CAP = 40
# GF(p, n) searches for its modulus: up to n = 16 every p <= 13 builds in
# under 0.1 s; up to n = 40 the slowest is GF(11^32), about 2 s (2-core
# host, Python 3.11)
FIELD_DEGREE_CAP = 16
# a run's time grows linearly in --r (witt:5 ad:1 takes 0.19 s at r = 1000
# in process on a 2-core host, Python 3.11); every semisimplicity exponent
# under the default --dim-cap is at most 6
R_CAP = 16
# the grading modulus m: the report lists m components; tpoly:5:5:1000 xddx
# takes 0.1 s and writes 57 kB (2-core host, Python 3.11)
M_CAP = 1000
# a coeffs trial takes 0.6 ms at p = 3, 8 ms over GF(13^2) and 0.19 s over
# GF(13^16) (2-core host, Python 3.11), so a run at the cap stays in minutes
TRIALS_CAP = 1000


def _digits(x):
    return list(x.coeffs)


def _check_cap(what, value, cap, flag=None):
    """Refuse a value above its cap, naming the flag that raises the cap;
    None is an absent value."""
    if value is not None and value > cap:
        raise ValueError("%s %d exceeds the cap %d%s" % (
            what, value, cap, " (raise %s)" % flag if flag else ""))


def _prime(p, cap):
    """p, refused above --p-cap and then unless prime: the cap first, since
    trial division of a huge p runs for minutes."""
    _check_cap("p =", p, cap, "--p-cap")
    if not is_prime(p):
        raise ValueError("p = %d is not prime" % p)
    return p


def _spec_int(flag, spec, text):
    """int(text), refused with a message that names the flag and its spec."""
    try:
        return int(text)
    except ValueError:
        raise ValueError("%s %r: %r is not an integer"
                         % (flag, spec, text)) from None


def _spec_slot(flag, spec, slot, dim):
    """slot, refused unless it is a basis slot of an algebra of dimension
    dim, with a message that names the flag, its spec and the valid slots."""
    if not 0 <= slot < dim:
        valid = "0 to %d" % (dim - 1) if dim else "none in dimension 0"
        raise ValueError("%s %r: basis slot %d is out of range (valid "
                         "slots: %s)" % (flag, spec, slot, valid))
    return slot


# ---------------------------------------------------------------------------
# identities


def cmd_identities(args):
    ps = [args.p] if args.p is not None else \
        [q for q in DEFAULT_PRIMES if q <= args.p_cap]
    results = []
    for p in ps:
        _prime(p, args.p_cap)
        reports = list(check_all_identities(p))
        reports.append(check_lemma_forms(p))
        reports.append(check_lemma_product_identity(p))
        results.extend({"p": p, **rep.to_dict()} for rep in reports)
    verdict = "pass" if all(r["passed"] for r in results) else "fail"
    return {"results": results, "verdict": verdict}


# ---------------------------------------------------------------------------
# coefficient tables


def _draw_pairs(field, trials, seed):
    """`trials` admissible (a, b), deterministically from the seed."""
    rng = random.Random(seed)
    q = field.p ** field.n
    out = []
    while len(out) < trials:
        a = field.from_int(rng.randrange(q))
        b = field.from_int(rng.randrange(q))
        if in_prime_star(a + b):
            continue
        out.append((a, b))
    return out


def cmd_coeffs(args):
    if args.jobs != 1:
        raise ValueError("coeffs runs in one process: --jobs must be 1")
    _check_cap("trials =", args.trials, TRIALS_CAP)
    p = _prime(args.p, args.p_cap)
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    if args.field_degree < 1:
        raise ValueError("field degree must be >= 1")
    _check_cap("field degree", args.field_degree, FIELD_DEGREE_CAP)
    field = GF(p, args.field_degree)
    pairs = _draw_pairs(field, args.trials, args.seed)
    results = [{"trial": i, "a": _digits(a), "b": _digits(b),
                "c_values": [_digits(v) for v in c_coefficients(p, a, b)],
                "passed": True}
               for i, (a, b) in enumerate(pairs)]

    zero_tab = c_coefficients(p, field.zero, field.zero)
    closed = zero_pair_closed_form(p, field)
    results.append({
        "trial": "zero_pair",
        "c_values": [_digits(v) for v in zero_tab],
        "closed_form": [_digits(v) for v in closed],
        "passed": zero_tab == closed,
    })
    verdict = "pass" if all(r["passed"] for r in results) else "fail"
    return {"results": results, "verdict": verdict}


# ---------------------------------------------------------------------------
# algebra and derivation plumbing


# A builtin family: its spec form, whose colons give the arity; its
# builder; the (prime, dimension, grading modulus) of what a spec's integers
# build, which the caps read before anything is built; and the basis slot
# of e_0, the default torus of `toral`, or None for a family that is not
# a Lie algebra.
Family = collections.namedtuple("Family", "form build shape torus")
FAMILIES = {
    "witt": Family("witt:P", witt, lambda p: (p, p, p), 1),
    "tpoly": Family("tpoly:P:LEN:M", truncated_poly,
                    lambda p, length, m: (p, length, m), None),
}


def _builtin_parts(spec):
    """(family, integer arguments) for each summand of a builtin spec.
    Nothing is built here."""
    parts = []
    for part in spec.split("+"):
        name, *bits = part.split(":")
        family = FAMILIES.get(name)
        if family is None or len(bits) != family.form.count(":"):
            raise ValueError("unknown builtin %r (use %s, joined with +)" % (
                part, " or ".join(f.form for f in FAMILIES.values())))
        parts.append((family, [_spec_int("--builtin", spec, b)
                               for b in bits]))
    return parts


def _parse_builtin(spec):
    return functools.reduce(direct_sum, [family.build(*ints) for family, ints
                                         in _builtin_parts(spec)])


def _load_builtin(spec, args):
    """The builtin algebra, built only once each summand's p passed --p-cap
    and its m M_CAP, their total dimension --dim-cap (a large one takes
    seconds to build), and the summands agree on p and m."""
    shapes = [family.shape(*ints) for family, ints in _builtin_parts(spec)]
    for p, _, m in shapes:
        _prime(p, args.p_cap)
        _check_cap("grading modulus m =", m, M_CAP)
    ps, dims, ms = zip(*shapes)
    _check_cap("dimension", sum(dims), args.dim_cap, "--dim-cap")
    for what, values in (("over different primes", ps),
                         ("with different grading moduli", ms)):
        if len(set(values)) > 1:
            raise ValueError("--builtin %r: summands %s %s"
                             % (spec, what, values))
    return _parse_builtin(spec)


def _load_algebra(args):
    if args.builtin and args.input:
        raise ValueError("give either --builtin or --input, not both")
    if args.builtin:
        return _load_builtin(args.builtin, args), None
    if not args.input:
        raise ValueError("an algebra is required: --builtin or --input")
    with open(args.input) as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError("malformed algebra JSON: nested too deeply") \
                from None
    if not isinstance(obj, dict):
        raise ValueError("algebra JSON must be an object")
    alg_obj = obj.get("algebra", obj)
    if isinstance(alg_obj, dict):
        # the caps before from_json allocates, tests p for primality or
        # searches for a modulus; it refuses a dim, m, p or field_degree
        # that is not an integer
        ints = {k: v for k, v in alg_obj.items() if type(v) is int}
        _check_cap("dimension", ints.get("dim"), args.dim_cap, "--dim-cap")
        _check_cap("grading modulus m =", ints.get("m"), M_CAP)
        if "p" in ints:
            _prime(ints["p"], args.p_cap)
        _check_cap("field degree", ints.get("field_degree"), FIELD_DEGREE_CAP)
    return GradedAlgebra.from_json(alg_obj), obj.get("derivation")


def _parse_derivation(A, spec, json_rows):
    if spec is None:
        spec = "json" if json_rows is not None else None
    if spec is None:
        raise ValueError("a derivation is required: --derivation")
    if spec == "json":
        if json_rows is None:
            raise ValueError("input file carries no derivation matrix")
        return _derivation_matrix(A, json_rows)
    if spec.startswith("ad:"):
        i = _spec_slot("--derivation", spec,
                       _spec_int("--derivation", spec, spec[3:]), A.dim)
        return A.left_multiplication(A.basis_vector(i))
    if spec in ("ddx", "xddx"):
        return truncated_poly_derivation(A, spec)
    raise ValueError("unknown derivation %r (use ad:I, ddx, xddx, or json)"
                     % spec)


def _derivation_matrix(A, json_rows):
    """The `--derivation json` matrix: A.dim lists of A.dim coefficients."""
    def malformed(detail):
        return ValueError("malformed derivation matrix: %s" % (detail,))

    if not isinstance(json_rows, list):
        raise malformed("expected a list of rows, not %r" % (json_rows,))
    rows = []
    for i, row in enumerate(json_rows):
        if not isinstance(row, list):
            raise malformed("row %d: expected a list, not %r" % (i, row))
        rows.append([])
        for j, entry in enumerate(row):
            try:
                rows[-1].append(_coeff_parse(A.field, entry))
            except (TypeError, ValueError) as exc:
                raise malformed("entry (%d, %d): %s" % (i, j, exc)) from exc
    if len(rows) != A.dim or any(len(r) != A.dim for r in rows):
        raise malformed("expected %d x %d entries" % (A.dim, A.dim))
    return LinearMap(A.field, rows)


def cmd_switch(args):
    _check_cap("r =", args.r, R_CAP)
    A, dmat = _load_algebra(args)
    D = _parse_derivation(A, args.derivation, dmat)
    res = switch_grading(A, D, r=args.r)
    verdict = "pass" if res.grading_ok else "fail"
    return {"results": [res.to_json()], "verdict": verdict}


# ---------------------------------------------------------------------------
# toral demo


def _default_torus(spec, lie):
    """e_0 of every summand of the builtin: RestrictedLie has refused the
    families that are not Lie algebras, which have no e_0 slot."""
    vecs, off = [], 0
    for family, ints in _builtin_parts(spec):
        vecs.append(lie.basis_vector(off + family.torus))
        off += family.shape(*ints)[1]
    return vecs


def _parse_x(lie, spec):
    bits = spec.split(":")
    if len(bits) == 2 and bits[0] == "e":
        slot = _spec_int("--x", spec, bits[1]) + 1
    elif len(bits) == 2 and bits[0] == "slot":
        slot = _spec_int("--x", spec, bits[1])
    else:
        raise ValueError("--x %r: expected e:K (witt label) or slot:I"
                         % spec)
    return lie.basis_vector(_spec_slot("--x", spec, slot, lie.dim))


def cmd_toral(args):
    _check_cap("r =", args.r, R_CAP)
    lie = RestrictedLie(_load_builtin(args.builtin, args))
    tvecs = _default_torus(args.builtin, lie)
    x = _parse_x(lie, args.x)
    out = compare_switch_to_toral(lie, tvecs, x, r=args.r)
    main_row = {
        "beta": [_digits(c) for c in out.beta],
        "w": [_digits(c) for c in out.w],
        "r": out.r,
        "old_roots": [[_digits(c) for c in root] for root, _ in out.old_roots],
        "new_roots": [[_digits(c) for c in root] for root, _ in out.new_roots],
        "old_dims": [s.dim for _, s in out.old_roots],
        "new_dims": [s.dim for _, s in out.new_roots],
        "strade_agrees": out.strade_agrees,
        "spaces_match": out.spaces_match,
        "torus_x_toral": out.torus_x_toral,
        "passed": out.strade_agrees and out.spaces_match,
    }
    oprep = strade_operator_form_check(lie.p)
    results = [main_row, {"p": lie.p, **oprep.to_dict()}]
    verdict = "pass" if all(r["passed"] for r in results) else "fail"
    return {"results": results, "verdict": verdict}


# ---------------------------------------------------------------------------
# report emission


def _emit_text(doc, out):
    print("command: %s" % doc["command"], file=out)
    for row in doc["results"]:
        if "name" in row:
            tag = "p=%s " % row["p"] if "p" in row and \
                "[p=" not in row["name"] else ""
            detail = " (%s)" % row["detail"] if row.get("detail") else ""
            print("  %s%s: %s%s" % (tag, row["name"],
                                    "pass" if row["passed"] else "FAIL",
                                    detail), file=out)
        elif "trial" in row:
            print("  trial %s: %s" % (row["trial"],
                                      "pass" if row["passed"] else "FAIL"),
                  file=out)
        elif "switch_map" in row:
            print("  field: GF(%d^%d) -> GF(%d^%d)"
                  % (row["field_start"]["p"], row["field_start"]["n"],
                     row["field_final"]["p"], row["field_final"]["n"]),
                  file=out)
            print("  r: %d (raw %d)" % (row["r"], row["r_raw"]), file=out)
            print("  blocks: %d, dims %s" % (len(row["block_dims"]),
                                             row["block_dims"]), file=out)
            print("  grading: %s" % ("pass" if row["grading_ok"] else "FAIL"),
                  file=out)
            if row.get("product_rule_pairs") is not None:
                print("  product rule: %d basis pairs"
                      % row["product_rule_pairs"], file=out)
        elif "spaces_match" in row:
            print("  beta: %s, r: %d" % (row["beta"], row["r"]), file=out)
            print("  old root dims: %s" % row["old_dims"], file=out)
            print("  new root dims: %s" % row["new_dims"], file=out)
            print("  operator product form agrees: %s"
                  % row["strade_agrees"], file=out)
            print("  switched spaces match new root spaces: %s"
                  % row["spaces_match"], file=out)
            print("  replacement torus toral: %s" % row["torus_x_toral"],
                  file=out)
    print("verdict: %s" % doc["verdict"], file=out)


def _emit(doc, args, out):
    if args.output == "json":
        print(json.dumps(doc, sort_keys=True, indent=2), file=out)
    else:
        _emit_text(doc, out)


def _config(args):
    keys = ("p", "field_degree", "trials", "seed", "builtin", "input",
            "derivation", "x", "r", "jobs", "p_cap", "output")
    return {k: getattr(args, k) for k in keys if hasattr(args, k)}


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser():
    ap = argparse.ArgumentParser(
        prog="gradeswitch",
        description="exact-arithmetic grading switches via Laguerre "
                    "polynomials of derivations")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--output", choices=("text", "json"), default="text")
        sp.add_argument("--p-cap", dest="p_cap", type=int, default=13,
                        help="largest prime accepted (runtime guard)")

    def dim_cap(sp):
        sp.add_argument("--dim-cap", dest="dim_cap", type=int,
                        default=DEFAULT_DIM_CAP,
                        help="largest algebra dimension accepted (runtime "
                             "guard)")

    sp = sub.add_parser("identities",
                        help="symbolic identity suite for the Laguerre "
                             "values and their factored forms")
    sp.add_argument("--p", type=int, default=None,
                    help="one prime; default runs the whole suite")
    common(sp)

    sp = sub.add_parser("coeffs",
                        help="coefficient tables over random admissible "
                             "argument pairs")
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--field-degree", dest="field_degree", type=int,
                    default=2)
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1,
                    help="must be 1: the trial sweep runs in one process "
                         "(kept so existing command lines still parse)")
    common(sp)

    sp = sub.add_parser("switch",
                        help="switch a grading along a derivation")
    sp.add_argument("--builtin", help=" | ".join(
        f.form for f in FAMILIES.values()) + ", joined with +")
    sp.add_argument("--input", help="algebra JSON file")
    sp.add_argument("--derivation",
                    help="ad:I | ddx | xddx | json (matrix from --input)")
    sp.add_argument("--r", type=int, default=None,
                    help="semisimplicity exponent override (>= 0)")
    common(sp)
    dim_cap(sp)

    sp = sub.add_parser("toral",
                        help="torus replacement along a root vector")
    sp.add_argument("--builtin", required=True, help=" | ".join(
        f.form for f in FAMILIES.values() if f.torus is not None)
        + ", joined with +")
    sp.add_argument("--x", default="e:-1",
                    help="root vector: e:K (witt label) or slot:I")
    sp.add_argument("--r", type=int, default=None,
                    help="x^[p]^r must lie in the torus (>= 0)")
    common(sp)
    dim_cap(sp)
    return ap


COMMANDS = {
    "identities": cmd_identities,
    "coeffs": cmd_coeffs,
    "switch": cmd_switch,
    "toral": cmd_toral,
}


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser `main` parses with: built on its first call, then reused
    for every later call in the process (building one takes about 1 ms)."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:   # an argparse usage error, or --help
        return exc.code
    doc = {"schema": 1, "command": args.command, "config": _config(args)}
    try:
        doc.update(COMMANDS[args.command](args))
    except (HypothesisError, VerificationError) as exc:
        print("hypothesis/verification failure: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    _emit(doc, args, sys.stdout)
    return 0 if doc["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
