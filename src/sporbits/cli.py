"""Command-line front end.

One binary with subcommands; flags win over an optional JSON config file.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 budget
(or memory) exhaustion.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from fractions import Fraction

from sporbits.checks import PER_SIZE_CHECKS, classification_invariance, degeneration
from sporbits.groebner import DEEP_BUDGET, BudgetExceeded, GBBudget, buchberger
from sporbits.involutions import (
    FpfInvolution,
    basics_decomposition,
    enumerate_fpf,
    glb,
    hasse_diagram,
    in_basic_family,
    odd_rank_constraint_holds,
    poset_dot,
    symplectic_essential_boxes,
    wiring_ascii,
)
from sporbits.orders import antidiagonal_order, grevlex_order, lex_order
from sporbits.pairperms import pair_permutations
from sporbits.permutations import Permutation
from sporbits.polynomials import VariableSet, parse_polynomial
from sporbits.symplectic import (
    MAX_MATRIX_SIZE,
    classify_orbit,
    orbit_ideal,
    verify_degeneration,
    verify_knutson_miller,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

#: the term orders of `groebner --order`, by name
ORDERS = {"lex": lex_order, "grevlex": grevlex_order, "antidiagonal": antidiagonal_order}


def _budget(args) -> GBBudget:
    """The default or --deep caps with those of flags and config over them;
    GBBudget refuses an unusable cap."""
    base = DEEP_BUDGET if getattr(args, "deep", False) else GBBudget()
    given = {cap.name: getattr(args, cap.name, None) for cap in dataclasses.fields(GBBudget)}
    return dataclasses.replace(base, **{name: v for name, v in given.items() if v is not None})


def _emit(args, payload: dict) -> None:
    if getattr(args, "format", "json") == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _read_json(path: str):
    """The JSON value in a file; nesting deeper than the parser can follow is
    malformed input like any other (a ValueError)."""
    with open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def cmd_enumerate(args) -> int:
    items = enumerate_fpf(args.n)
    _emit(
        args,
        {
            "n": args.n,
            "count": len(items),
            "involutions": [list(i.word) for i in items],
        },
    )
    return EXIT_OK


def cmd_poset(args) -> int:
    if args.format == "dot":
        print(poset_dot(args.n))
        return EXIT_OK
    edges = [[list(low), list(high)] for low, high in hasse_diagram(args.n)]
    _emit(args, {"n": args.n, "edges_lower_to_upper": edges})
    return EXIT_OK


def cmd_wiring(args) -> int:
    print(wiring_ascii(FpfInvolution.from_any(args.iota)))
    return EXIT_OK


def cmd_boxes(args) -> int:
    iota = FpfInvolution.from_any(args.iota)
    boxes = sorted(symplectic_essential_boxes(iota))
    _emit(
        args,
        {
            "iota": list(iota.word),
            "symplectic_essential_boxes": [list(b) for b in boxes],
            "odd_rank_constraint_holds": odd_rank_constraint_holds(iota),
        },
    )
    return EXIT_OK


def cmd_basics(args) -> int:
    iota = FpfInvolution.from_any(args.iota)
    parts = sorted(basics_decomposition(iota), key=lambda k: k.word)
    meet = glb(parts, n=iota.n)
    ok = meet == iota and all(in_basic_family(p) for p in parts)
    _emit(
        args,
        {
            "iota": list(iota.word),
            "decomposition": [list(p.word) for p in parts],
            "glb": list(meet.word),
            "glb_matches": ok,
        },
    )
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def cmd_pairperms(args) -> int:
    result = pair_permutations(FpfInvolution.from_any(args.iota))
    _emit(args, result.to_json())
    return EXIT_OK


def cmd_groebner(args) -> int:
    blob = _read_json(args.ideal)
    if not (
        isinstance(blob, dict)
        and "generators" in blob
        and (blob.get("variables") or "matrix_size" in blob)
    ):
        raise ValueError(f'{args.ideal}: needs "generators" and "variables" or "matrix_size"')
    names, size = blob.get("variables", []), blob.get("matrix_size", 0)
    if "matrix_size" in blob and not (type(size) is int and 1 <= size <= MAX_MATRIX_SIZE):
        raise ValueError(f'{args.ideal}: "matrix_size" must be an integer in 1..{MAX_MATRIX_SIZE}')
    for key, value in (("variables", names), ("generators", blob["generators"])):
        if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
            raise ValueError(f'{args.ideal}: "{key}" must be a list of strings')
    vs = VariableSet(tuple(names), matrix_size=size) if names else VariableSet.matrix(size)
    try:
        gens = [parse_polynomial(vs, s) for s in blob["generators"]]
    except ZeroDivisionError as exc:
        raise ValueError(f"{args.ideal}: bad generator: {exc}") from exc
    order = ORDERS[args.order](vs)
    gb = buchberger(gens, order, _budget(args))
    _emit(args, {"order": order.name, "reduced_basis": [str(g) for g in gb]})
    return EXIT_OK


def cmd_orbit_ideal(args) -> int:
    _emit(args, orbit_ideal(FpfInvolution.from_any(args.iota)).to_json())
    return EXIT_OK


def cmd_classify(args) -> int:
    rows = _read_json(args.matrix)
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError(f"{args.matrix}: the matrix must be a JSON list of row lists")
    try:
        M = [[Fraction(str(x)) for x in row] for row in rows]
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"{args.matrix}: bad matrix entry: {exc}") from exc
    iota = classify_orbit(M)
    _emit(args, {"iota": list(iota.word)})
    return EXIT_OK


def cmd_verify_km(args) -> int:
    p = Permutation.from_any(args.pi)
    ok = verify_knutson_miller(p, _budget(args))
    _emit(args, {"pi": list(p.word), "groebner_basis": ok})
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def cmd_verify_degeneration(args) -> int:
    report = verify_degeneration(FpfInvolution.from_any(args.iota), _budget(args))
    _emit(args, report.to_json())
    if report.budget_exhausted:
        return EXIT_BUDGET
    return EXIT_OK if report.equal else EXIT_VERIFICATION_FAILED


def cmd_verify_all(args) -> int:
    """Batch invariant suite at combinatorial scale plus the 2n=4 degenerations.
    Exit 1 when a check fails, else 3 when one ran out of budget (its row
    reads null)."""
    # caps, counts and every size first, so a bad one fails before any check
    budget = _budget(args)
    for flag in ("n", "samples"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be at least 1")
    families = [(n, enumerate_fpf(n)) for n in range(1, args.n + 1)]
    checks = [
        [f"{name}_2n={2*n}", *check(items)]
        for n, items in families
        for name, check in PER_SIZE_CHECKS
    ]
    for word in ("2143", "3412", "4321"):
        checks.append([f"degeneration_{word}", *degeneration(FpfInvolution.from_any(word), budget)])
    rng = random.Random(args.seed)
    checks.append(["classification_invariance_2n=4", *classification_invariance(args.samples, rng)])
    failures = [name for name, ok, _ in checks if ok is False]
    _emit(args, {"checks": checks, "failures": failures})
    if failures:
        return EXIT_VERIFICATION_FAILED
    return EXIT_BUDGET if any(ok is None for _, ok, _ in checks) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sporbits",
        description="Symplectic orbit combinatorics and degeneration checks",
    )
    parser.add_argument("--config", help="JSON config file; flags win", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=False):
        p.add_argument("--format", choices=["json", "text", "dot"], default="json")
        if budget:
            p.add_argument("--deep", action="store_true", help="raise GB budgets")
            p.add_argument("--max-pairs", dest="max_pairs", type=int)
            p.add_argument("--max-degree", dest="max_degree", type=int)
            p.add_argument("--max-seconds", dest="max_seconds", type=float)

    p = sub.add_parser("enumerate", help="list fixed-point-free involutions")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("poset", help="opposite-Bruhat Hasse diagram")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("wiring", help="ASCII wiring diagram")
    p.add_argument("--iota", required=True)
    common(p)
    p.set_defaults(func=cmd_wiring)

    p = sub.add_parser("boxes", help="symplectic essential boxes")
    p.add_argument("--iota", required=True)
    common(p)
    p.set_defaults(func=cmd_boxes)

    p = sub.add_parser("basics", help="basic-element decomposition + glb check")
    p.add_argument("--iota", required=True)
    common(p)
    p.set_defaults(func=cmd_basics)

    p = sub.add_parser("pairperms", help="pair permutations P(iota)")
    p.add_argument("--iota", required=True)
    common(p)
    p.set_defaults(func=cmd_pairperms)

    p = sub.add_parser("groebner", help="reduced Groebner basis of an ideal file")
    p.add_argument("--ideal", required=True, help="JSON file with variables/generators")
    p.add_argument("--order", choices=list(ORDERS), default="lex")
    common(p, budget=True)
    p.set_defaults(func=cmd_groebner)

    p = sub.add_parser("orbit-ideal", help="pfaffian generators of I(Y_iota) by the box rule")
    p.add_argument("--iota", required=True)
    common(p)
    p.set_defaults(func=cmd_orbit_ideal)

    p = sub.add_parser("classify", help="orbit of a numeric matrix")
    p.add_argument("--matrix", required=True, help="JSON array of rational strings")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify-km", help="Knutson-Miller Groebner check")
    p.add_argument("--pi", required=True)
    common(p, budget=True)
    p.set_defaults(func=cmd_verify_km)

    p = sub.add_parser("verify-degeneration", help="full degeneration check")
    p.add_argument("--iota", required=True)
    common(p, budget=True)
    p.set_defaults(func=cmd_verify_degeneration)

    p = sub.add_parser("verify-all", help="batch invariant suite")
    p.add_argument("--n", type=int, default=4, help="max half-size for enumeration checks")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--samples", type=int, default=20)
    common(p, budget=True)
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # config values that name an option, checked against it, become
        # parser-level defaults (on the subcommand parsers too, since each
        # parses into its own namespace); given flags win in a second parse
        try:
            cfg = _read_json(args.config)
        except (OSError, ValueError) as exc:
            parser.error(f"bad config file: {exc}")
        if not isinstance(cfg, dict):
            parser.error("bad config file: expected a JSON object")
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parsers = [parser, *sub.choices.values()]
        kinds = {int: (int,), float: (int, float)}  # a bool is no int here
        defaults = {}
        for key, value in cfg.items():
            dest = key.replace("-", "_")
            for action in (a for p in parsers for a in p._actions if a.option_strings and a.dest == dest):
                # a flag takes a bool; strings are left to argparse's conversion
                if isinstance(action, argparse._StoreTrueAction):
                    fits = type(value) is bool
                else:
                    fits = isinstance(value, str) or type(value) in kinds.get(action.type, ())
                if not fits or action.choices is not None and value not in action.choices:
                    parser.error(f"bad config file: {key!r} cannot be {json.dumps(value)}")
                defaults[dest] = value
        for p in parsers:
            p.set_defaults(**defaults)
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        _emit(args, {"budget_exhausted": exc.reason, "stats": exc.stats})
        return EXIT_BUDGET
    except MemoryError:
        # emitted once the handler has ended: the traceback holds the failed
        # call's frames, and writing the report could run out again
        pass
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(args, {"budget_exhausted": "memory", "stats": {}})
    return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
