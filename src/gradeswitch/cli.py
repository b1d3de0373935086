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
# a run's time grows linearly in --r (witt:5 ad:1 takes 1.6 s at r = 1000
# on a 2-core host, Python 3.11); every semisimplicity exponent under the
# default --dim-cap is at most 6
R_CAP = 16
# the grading modulus m: the report lists m components; tpoly:5:5:1000 xddx
# takes 0.1 s and writes 57 kB (2-core host, Python 3.11)
M_CAP = 1000
# a coeffs trial takes 0.6 ms at p = 3, 8 ms over GF(13^2) and 0.19 s over
# GF(13^16) (2-core host, Python 3.11), so a run at the cap stays in minutes
TRIALS_CAP = 1000


def _digits(x):
    return list(x.coeffs)


def _check_prime(p, cap):
    # the cap first: trial division of a huge p runs for minutes
    if p > cap:
        raise ValueError("p = %d exceeds the cap %d (raise --p-cap)"
                         % (p, cap))
    if not is_prime(p):
        raise ValueError("p = %d is not prime" % p)


def _check_field_degree(n):
    if n > FIELD_DEGREE_CAP:
        raise ValueError("field degree %d exceeds the cap %d"
                         % (n, FIELD_DEGREE_CAP))


def _check_r(r):
    if r is not None and r > R_CAP:
        raise ValueError("r = %d exceeds the cap %d" % (r, R_CAP))


def _check_m(m):
    if m > M_CAP:
        raise ValueError("grading modulus m = %d exceeds the cap %d"
                         % (m, M_CAP))


def _check_dim(dim, cap):
    if dim > cap:
        raise ValueError("dimension %d exceeds the cap %d (raise --dim-cap)"
                         % (dim, cap))


def _spec_int(flag, spec, text):
    """int(text), refused with a message that names the flag and its spec."""
    try:
        return int(text)
    except ValueError:
        raise ValueError("%s %r: %r is not an integer"
                         % (flag, spec, text)) from None


# ---------------------------------------------------------------------------
# identities


def cmd_identities(args):
    ps = [args.p] if args.p is not None else \
        [q for q in DEFAULT_PRIMES if q <= args.p_cap]
    results = []
    for p in ps:
        _check_prime(p, args.p_cap)
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
    p = args.p
    if args.jobs != 1:
        raise ValueError("coeffs runs in one process: --jobs must be 1")
    if args.trials > TRIALS_CAP:
        raise ValueError("trials = %d exceeds the cap %d"
                         % (args.trials, TRIALS_CAP))
    _check_prime(p, args.p_cap)
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    if args.field_degree < 1:
        raise ValueError("field degree must be >= 1")
    _check_field_degree(args.field_degree)
    field = GF(p, args.field_degree)
    pairs = _draw_pairs(field, args.trials, args.seed)
    results = [{"trial": i, "a": _digits(a), "b": _digits(b),
                "c_values": [_digits(v) for v in
                             c_coefficients(p, a, b).values()],
                "passed": True}
               for i, (a, b) in enumerate(pairs)]

    zero_tab = c_coefficients(p, field.zero, field.zero)
    closed = zero_pair_closed_form(p, field)
    results.append({
        "trial": "zero_pair",
        "c_values": [_digits(v) for v in zero_tab.values()],
        "closed_form": [_digits(v) for v in closed],
        "passed": zero_tab.values() == closed,
    })
    verdict = "pass" if all(r["passed"] for r in results) else "fail"
    return {"results": results, "verdict": verdict}


# ---------------------------------------------------------------------------
# algebra and derivation plumbing


def _builtin_parts(spec):
    """(name, integer arguments) for each summand of a builtin spec; the
    first argument is the prime.  Nothing is built here."""
    parts = []
    for part in spec.split("+"):
        name, *bits = part.split(":")
        if (name, len(bits)) not in (("witt", 1), ("tpoly", 3)):
            raise ValueError("unknown builtin %r (use witt:P or "
                             "tpoly:P:LEN:M, joined with +)" % part)
        parts.append((name, [_spec_int("--builtin", spec, b)
                             for b in bits]))
    return parts


def _parse_builtin(spec):
    algs = [witt(*bits) if name == "witt" else truncated_poly(*bits)
            for name, bits in _builtin_parts(spec)]
    acc = algs[0]
    for other in algs[1:]:
        acc = direct_sum(acc, other)
    return acc


def _load_builtin(spec, args):
    """The builtin algebra, built only once every summand's prime passed
    --p-cap, its grading modulus M_CAP and the summands' total dimension
    --dim-cap (a large one takes seconds to build)."""
    parts = _builtin_parts(spec)
    for name, bits in parts:
        _check_prime(bits[0], args.p_cap)
        # witt:P is graded mod P, tpoly:P:LEN:M mod M
        _check_m(bits[0] if name == "witt" else bits[2])
    # witt:P has dimension P, tpoly:P:LEN:M has dimension LEN
    _check_dim(sum(bits[0] if name == "witt" else bits[1]
                   for name, bits in parts), args.dim_cap)
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
        dim, p = alg_obj.get("dim"), alg_obj.get("p")
        n, m = alg_obj.get("field_degree"), alg_obj.get("m")
        if isinstance(dim, int):
            _check_dim(dim, args.dim_cap)
        if isinstance(m, int):
            _check_m(m)
        if isinstance(p, int) and not isinstance(p, bool):
            _check_prime(p, args.p_cap)
        if isinstance(n, int) and not isinstance(n, bool):
            _check_field_degree(n)
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
        i = _spec_int("--derivation", spec, spec[3:])
        if not 0 <= i < A.dim:
            raise ValueError("basis slot out of range")
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
    _check_r(args.r)
    A, dmat = _load_algebra(args)
    D = _parse_derivation(A, args.derivation, dmat)
    res = switch_grading(A, D, r=args.r)
    verdict = "pass" if res.grading_ok else "fail"
    return {"results": [res.to_json()], "verdict": verdict}


# ---------------------------------------------------------------------------
# toral demo


def _default_torus(spec, lie):
    """e_0 of every summand of the builtin, all Witt: the other builtins
    have no p-map, so RestrictedLie has refused them."""
    vecs, off = [], 0
    for _, bits in _builtin_parts(spec):
        vecs.append(lie.basis_vector(off + 1))
        off += bits[0]
    return vecs


def _parse_x(lie, spec):
    bits = spec.split(":")
    if len(bits) == 2 and bits[0] == "e":
        slot = _spec_int("--x", spec, bits[1]) + 1
    elif len(bits) == 2 and bits[0] == "slot":
        slot = _spec_int("--x", spec, bits[1])
    else:
        raise ValueError("x must look like e:-1 (witt label) or slot:0")
    if not 0 <= slot < lie.dim:
        raise ValueError("x slot out of range")
    return lie.basis_vector(slot)


def cmd_toral(args):
    if not args.builtin:
        raise ValueError("the toral demo runs on builtin algebras")
    _check_r(args.r)
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
    sp.add_argument("--builtin",
                    help="witt:P | tpoly:P:LEN:M, joined with +")
    sp.add_argument("--input", help="algebra JSON file")
    sp.add_argument("--derivation",
                    help="ad:I | ddx | xddx | json (matrix from --input)")
    sp.add_argument("--r", type=int, default=None,
                    help="semisimplicity exponent override (>= 0)")
    common(sp)
    dim_cap(sp)

    sp = sub.add_parser("toral",
                        help="torus replacement along a root vector")
    sp.add_argument("--builtin", required=True,
                    help="witt:P, or witt sums joined with +")
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


def main(argv=None):
    args = build_parser().parse_args(argv)
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
