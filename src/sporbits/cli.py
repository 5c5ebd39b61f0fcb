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
    caps = {cap.name: getattr(args, cap.name) for cap in dataclasses.fields(GBBudget) if hasattr(args, cap.name)}
    return dataclasses.replace(DEEP_BUDGET if args.deep else GBBudget(), **caps)


def _emit(args, payload: dict) -> None:
    if args.format == "json":
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


#: an option: its flag and `add_argument` keywords, with the default, which
#: main applies and argparse never sees
_N = ("--n", dict(type=int, required=True))
_IOTA = ("--iota", dict(required=True))
_FORMAT = ("--format", dict(choices=["json", "text", "dot"], default="json"))
_BUDGET = (
    ("--deep", dict(action="store_true", help="raise GB budgets", default=False)),
    ("--max-pairs", dict(type=int)), ("--max-degree", dict(type=int)), ("--max-seconds", dict(type=float)),
)
_CONFIG = ("--config", dict(help="JSON config file; flags win"))

#: the subcommands: name -> (handler, help, options in the order of --help)
COMMANDS = {
    "enumerate": (cmd_enumerate, "list fixed-point-free involutions", [_N, _FORMAT]),
    "poset": (cmd_poset, "opposite-Bruhat Hasse diagram", [_N, _FORMAT]),
    "wiring": (cmd_wiring, "ASCII wiring diagram", [_IOTA, _FORMAT]),
    "boxes": (cmd_boxes, "symplectic essential boxes", [_IOTA, _FORMAT]),
    "basics": (cmd_basics, "basic-element decomposition + glb check", [_IOTA, _FORMAT]),
    "pairperms": (cmd_pairperms, "pair permutations P(iota)", [_IOTA, _FORMAT]),
    "groebner": (cmd_groebner, "reduced Groebner basis of an ideal file", [
        ("--ideal", dict(required=True, help="JSON file with variables/generators")),
        ("--order", dict(choices=list(ORDERS), default="lex")), _FORMAT, *_BUDGET]),
    "orbit-ideal": (cmd_orbit_ideal, "pfaffian generators of I(Y_iota) by the box rule", [_IOTA, _FORMAT]),
    "classify": (cmd_classify, "orbit of a numeric matrix", [
        ("--matrix", dict(required=True, help="JSON array of rational strings")), _FORMAT]),
    "verify-km": (cmd_verify_km, "Knutson-Miller Groebner check", [("--pi", dict(required=True)), _FORMAT, *_BUDGET]),
    "verify-degeneration": (cmd_verify_degeneration, "full degeneration check", [_IOTA, _FORMAT, *_BUDGET]),
    "verify-all": (cmd_verify_all, "batch invariant suite", [
        ("--n", dict(type=int, default=4, help="max half-size for enumeration checks")),
        ("--seed", dict(type=int, default=2024)),
        ("--samples", dict(type=int, default=20)), _FORMAT, *_BUDGET]),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _parser() -> argparse.ArgumentParser:
    """The parser of every subcommand. A subparser defaults nothing, so its
    namespace holds exactly the flags given."""
    parser = argparse.ArgumentParser("sporbits", description="Symplectic orbit combinatorics and degeneration checks")
    parser.add_argument(_CONFIG[0], **_CONFIG[1])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag, spec in options:
            p.add_argument(flag, **{k: v for k, v in spec.items() if k != "default"})
    return parser


#: built once, at import; nothing changes it after
PARSER = _parser()

#: every option of every command by its dest
_OPTIONS = {_dest(flag): spec for _, _, options in COMMANDS.values() for flag, spec in [_CONFIG, *options]}

#: the JSON types of a config value for an option of each type; a bool is no int here
_KINDS = {None: (str,), int: (str, int), float: (str, int, float)}


def _read_config(path: str) -> dict:
    """The values of a config file by the dest of the option they name, each
    checked to suit that option: a flag takes a bool, other options a string
    (converted as on the command line, once main uses it) or a value of their
    type; keys that name no option are dropped."""
    try:
        cfg = _read_json(path)
    except (OSError, ValueError) as exc:
        PARSER.error(f"bad config file: {exc}")
    if not isinstance(cfg, dict):
        PARSER.error("bad config file: expected a JSON object")
    values = {}
    for key, value in cfg.items():
        if (spec := _OPTIONS.get(_dest(f"--{key}"))) is None:
            continue
        kinds = (bool,) if spec.get("action") == "store_true" else _KINDS[spec.get("type")]
        if type(value) not in kinds or "choices" in spec and value not in spec["choices"]:
            PARSER.error(f"bad config file: {key!r} cannot be {json.dumps(value)}")
        values[_dest(f"--{key}")] = value
    return values


def main(argv=None) -> int:
    given = vars(PARSER.parse_args(argv))
    handler, _, options = COMMANDS[given.pop("command")]
    specs = {_dest(flag): spec for flag, spec in options}
    # the table's defaults, then the config's values, then the given flags
    values = {dest: spec["default"] for dest, spec in specs.items() if "default" in spec}
    config = given.pop("config")
    for dest, value in (_read_config(config) if config else {}).items():
        if dest not in specs or dest in given:
            continue
        if isinstance(value, str) and "type" in specs[dest]:
            try:
                value = specs[dest]["type"](value)
            except ValueError:
                PARSER.error(f"bad config file: {dest!r} cannot be {json.dumps(value)}")
        values[dest] = value
    args = argparse.Namespace(**{**values, **given})
    try:
        return handler(args)
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
