"""Command-line interface.

Every subcommand takes --n for the rank and --json for machine output; exit
codes are 0 on success, 1 on parse errors (with position information), 2
on domain errors such as non-invariant input or elements outside the
embedded image, and 3 on internal errors (an identity the theory guarantees
failed, which indicates a bug).  An error prints one line on stderr and,
under --json, also the object {"schema": 1, "error": {"type", "message"}}
on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import combinations

from .errors import AlgebraError, DomainError, InternalConsistencyError, ParseError
from .invariants import (
    decompose_invariant,
    generator_h,
    generator_h_lie,
    invariance_violation,
    invariant_space_basis,
    reynolds_lie,
    verify_module_relation,
)
from .lie import normal_form
from .parsing import parse_lie_expr, parse_polynomial, parse_wreath
from .permutations import parse_cycles
from .polynomials import elementary_symmetric, reynolds_poly
from .wreath import WreathElement, embed, preimage, substitute_u_equals_x
from . import lie, invariants

SCHEMA = 1

# (exit code, stderr prefix) per error class; an error takes the entry of the
# first class in its method resolution order that has one.
_ERROR_EXITS = {
    ParseError: (1, "parse error"),
    json.JSONDecodeError: (1, "parse error"),
    InternalConsistencyError: (3, "internal error"),
    AlgebraError: (2, "error"),
}


def _emit_json(payload):
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, indent=2))


def _emit_result(args, text):
    if args.json:
        _emit_json({"result": text})
    else:
        print(text)


def _wreath_json(w):
    return {"u": [p.to_text() for p in w.upart], "v": [str(v) for v in w.vpart]}


def _decomposition_json(dec, verified):
    return {
        "f1": str(dec.f1_coeff),
        "parts": [
            {
                "i": i,
                "j": j,
                "q": [
                    {"a": list(vec), "c": str(q.terms[vec])}
                    for vec in sorted(q.terms)
                ],
            }
            for i, j, q in dec.items()
        ],
        "verified": verified,
    }


def _lie_input(args):
    return normal_form(parse_lie_expr(args.expr, args.n), args.n)


def _emit_pairs(args, prefix, generator, json_fields, pairs):
    """One ``<prefix>_ij = ...`` line per generator, or a JSON list of them."""
    if args.json:
        _emit_json(
            {
                "generators": [
                    {"i": i, "j": j, **json_fields(generator(args.n, i, j))}
                    for i, j in pairs
                ]
            }
        )
    else:
        for i, j in pairs:
            print(f"{prefix}_{i}{j} = {generator(args.n, i, j).to_text()}")
    return 0


def _cmd_normal_form(args):
    element = _lie_input(args)
    if args.apply_perm:
        sigma = parse_cycles(args.apply_perm, args.n)
        element = lie.apply_perm_lie(sigma, element)
    _emit_result(args, element.to_text())
    return 0


def _cmd_embed(args):
    image = embed(_lie_input(args))
    if args.json:
        _emit_json(_wreath_json(image))
    else:
        print(image.to_text())
    return 0


def _json_rational(value):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ParseError(f'"v" entries must be rational strings or integers, got {value!r}', 0)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f'"v" entry {value!r} is not a rational', 0) from None


def _parse_wreath_input(text, n):
    """A wreath element in text form, or as JSON {"u": [...], "v": [...]}.

    "u" lists polynomial strings; "v", if present, lists rational strings or
    integers.  Floats are rejected to keep arithmetic exact.
    """
    text = text.strip()
    if not text.startswith("{"):
        return parse_wreath(text, n)
    data = json.loads(text)
    upart = data.get("u")
    if not isinstance(upart, list) or not all(isinstance(p, str) for p in upart):
        raise ParseError('"u" must be a list of polynomial strings', 0)
    vpart = data.get("v", ["0"] * n)
    if not isinstance(vpart, list):
        raise ParseError('"v" must be a list of rational strings or integers', 0)
    return WreathElement(
        n,
        tuple(parse_polynomial(p, n) for p in upart),
        tuple(_json_rational(v) for v in vpart),
    )


def _cmd_preimage(args):
    _emit_result(args, preimage(_parse_wreath_input(args.expr, args.n)).to_text())
    return 0


def _cmd_is_invariant(args):
    violation = invariance_violation(_lie_input(args))
    if args.json:
        payload = {"invariant": violation is None}
        if violation is not None:
            payload["violated_by"] = repr(violation)
        _emit_json(payload)
    else:
        print("true" if violation is None else f"false, violated by {violation}")
    return 0


def _cmd_reynolds(args):
    _emit_result(args, reynolds_lie(_lie_input(args)).to_text())
    return 0


def _cmd_symmetrize_poly(args):
    _emit_result(args, reynolds_poly(parse_polynomial(args.expr, args.n)).to_text())
    return 0


def _cmd_generators(args):
    pairs = combinations(range(1, args.n + 1), 2)
    return _emit_pairs(args, "h", generator_h, _wreath_json, pairs)


def _cmd_generator_lie(args):
    if (args.i is None) != (args.j is None):
        raise DomainError("--i and --j must be given together")
    if args.i is not None:
        pairs = [(args.i, args.j)]
    else:
        pairs = combinations(range(1, args.n + 1), 2)
    return _emit_pairs(
        args, "f", generator_h_lie, lambda element: {"result": element.to_text()}, pairs
    )


def _cmd_decompose(args):
    element = _lie_input(args)
    dec = decompose_invariant(element)
    verified = dec.verify(element)
    if args.json:
        _emit_json(_decomposition_json(dec, verified))
    else:
        print(dec.to_text())
        print(f"verified: {'true' if verified else 'false'}")
    return 0 if verified else 2


def _cmd_invariant_basis(args):
    payload = []
    for d in range(1, args.max_degree + 1):
        basis = invariant_space_basis(args.n, d)
        payload.append((d, basis))
    if args.json:
        _emit_json(
            {
                "basis": [
                    {"degree": d, "elements": [e.to_text() for e in basis]}
                    for d, basis in payload
                ]
            }
        )
    else:
        for d, basis in payload:
            noun = "element" if len(basis) == 1 else "elements"
            print(f"degree {d}: {len(basis)} {noun}")
            for e in basis:
                print(f"  {e.to_text()}")
    return 0


def _cmd_verify_relations(args):
    triples = list(combinations(range(1, args.n + 1), 3))
    failures = [t for t in triples if not verify_module_relation(args.n, *t)]
    if args.json:
        _emit_json(
            {
                "checked": len(triples),
                "holds": not failures,
                "failures": [list(t) for t in failures],
            }
        )
    else:
        if failures:
            for t in failures:
                print(f"relation FAILED for (i,j,k) = {t}")
        else:
            noun = "relation" if len(triples) == 1 else "relations"
            print(f"all {len(triples)} {noun} hold")
    return 2 if failures else 0


# Closed forms of the generators at ranks 2 and 3.  The traditional third
# rank-3 expression circulates with the ad-factor (x_i + x_j) * x_k, which is
# inconsistent with the generator formula (it equals h_13*e_1 - h_23); the
# consistent factor is x_k^2, and the selftest pins both facts.
_GOLDEN_N3 = {
    (1, 2): "[x2,x1,x2-x1] + [x3,x1,x3-x1] + [x3,x2,x3-x2]",
    (1, 3): "[x2,x1,x2-x1,x3] + [x3,x1,x3-x1,x2] + [x3,x2,x3-x2,x1]",
    (2, 3): "[x2,x1,x2-x1,x3,x3] + [x3,x1,x3-x1,x2,x2] + [x3,x2,x3-x2,x1,x1]",
}
_N3_VARIANT = "[x2,x1,x2-x1,x1+x2,x3] + [x3,x1,x3-x1,x1+x3,x2] + [x3,x2,x3-x2,x2+x3,x1]"


def _cmd_selftest(args):
    checks = []
    expected2 = normal_form(parse_lie_expr("[x2,x1,x2] - [x2,x1,x1]", 2), 2)
    checks.append(("rank-2 generator", generator_h_lie(2, 1, 2) == expected2))
    for (i, j), text in sorted(_GOLDEN_N3.items()):
        expected = normal_form(parse_lie_expr(text, 3), 3)
        checks.append((f"rank-3 generator ({i},{j})", generator_h_lie(3, i, j) == expected))
    variant = normal_form(parse_lie_expr(_N3_VARIANT, 3), 3)
    ident = lie.ad_action(
        generator_h_lie(3, 1, 3), elementary_symmetric(3, 1)
    ) - generator_h_lie(3, 2, 3)
    checks.append(("rank-3 variant identity h13*e1 - h23", variant == ident))
    for n in range(2, 7):
        ok = all(
            substitute_u_equals_x(invariants.epsilon(n, j))
            == elementary_symmetric(n, j) * j
            for j in range(1, n + 1)
        )
        checks.append((f"epsilon normalization n={n}", ok))
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'ok' if ok else 'MISMATCH'}: {name}")
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metabelian",
        description="Exact computations with symmetric elements of the free "
        "metabelian Lie algebra over the rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, expr_help=None, max_degree=False):
        p.add_argument("--n", type=int, required=True, help="rank (number of variables), n >= 2")
        p.add_argument("--json", action="store_true", help="emit JSON output")
        if expr_help:
            p.add_argument("expr", help=expr_help)
        if max_degree:
            p.add_argument("--max-degree", type=int, default=6, help="degree bound (default 6)")
        return p

    p = common(sub.add_parser("normal-form", help="canonical form of a Lie expression"),
               "Lie expression, e.g. '[x2,x1,x2] - [x2,x1,x1]'")
    p.add_argument("--apply-perm", help="apply a permutation in cycle notation, e.g. '(1 2)'")
    common(sub.add_parser("embed", help="image in the wreath product"),
           "Lie expression")
    common(sub.add_parser("preimage", help="pull a wreath element back to the Lie algebra"),
           "wreath element, e.g. 'u2*( x1 ) - u1*( x2 )' or JSON {\"u\": [...], \"v\": [...]}")
    common(sub.add_parser("is-invariant", help="test invariance under the symmetric group"),
           "Lie expression")
    common(sub.add_parser("reynolds", help="average a Lie element over the symmetric group"),
           "Lie expression")
    common(sub.add_parser("symmetrize-poly", help="average a polynomial over the symmetric group"),
           "polynomial, e.g. '3/2*x1^2*x2 - x3'")
    common(sub.add_parser("generators", help="print the module generators h_ij"))
    p = common(sub.add_parser("generator-lie", help="print generators in Lie normal form"))
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    common(sub.add_parser("decompose", help="decompose an invariant over the generators"),
           "Lie expression")
    common(sub.add_parser("invariant-basis", help="per-degree bases of the invariants"),
           max_degree=True)
    common(sub.add_parser("verify-relations", help="check the three-index generator relations"))
    p = sub.add_parser("selftest", help="recompute the built-in golden identities")
    p.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(n=3)
    return parser


_HANDLERS = {
    "normal-form": _cmd_normal_form,
    "embed": _cmd_embed,
    "preimage": _cmd_preimage,
    "is-invariant": _cmd_is_invariant,
    "reynolds": _cmd_reynolds,
    "symmetrize-poly": _cmd_symmetrize_poly,
    "generators": _cmd_generators,
    "generator-lie": _cmd_generator_lie,
    "decompose": _cmd_decompose,
    "invariant-basis": _cmd_invariant_basis,
    "verify-relations": _cmd_verify_relations,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n < 2:
        parser.error(f"--n must be at least 2, got {args.n}")
    try:
        return _HANDLERS[args.command](args)
    except (AlgebraError, json.JSONDecodeError) as exc:
        code, prefix = next(_ERROR_EXITS[c] for c in type(exc).__mro__ if c in _ERROR_EXITS)
        print(f"{prefix}: {exc}", file=sys.stderr)
        if args.json:
            _emit_json({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return code


if __name__ == "__main__":
    sys.exit(main())
