"""Check that two source trees give the same CLI output, byte for byte.

    python scripts/compare_cli.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are directories holding a `sporbits` package (the
`src/` of two checkouts).  A fixed list of commands runs in one process per
tree; every command whose exit code or stdout differs is printed with a diff
of its output.  The `timings` of verify-degeneration reports are dropped
first, as they change from run to run.  Exit 0 when every command agrees,
1 when one differs, 2 when a tree cannot run the list.

The commands: `enumerate` and `poset` (JSON and DOT) at n <= 5, the edge of
the Hasse diagram's bound; past the caps, `poset --n 6` (JSON and DOT),
`enumerate --n 7` and `verify-all --n 7`, all usage errors; `boxes`,
`basics`, `pairperms`, `wiring` and `orbit-ideal` on all 15 involutions at
2n = 6; `basics`, `orbit-ideal` and `pairperms` on all 105 at 2n = 8;
`basics` and `pairperms` on all 945 at 2n = 10; `verify-degeneration
--deep` on the 19 involutions with 2n <= 6, on the 5 benchmark words at
2n = 8 (21436587 21437856 21563487 34126587 43216587) and on 5 more at
2n = 8 whose left phases end in a real final reduction (84523761 85432761
86437251 21754836 67854123);
`verify-degeneration --deep --iota 216543` at `--max-pairs K` caps that stop
its 10-pair basis on the first pair, in the middle and on the last, one it
finishes within, and at a `--max-degree 6` exit, so the budget statistics
are compared byte for byte, not only the verdicts, and at `--max-degree` caps
of 63, 64, 127, 128 and 200, about the width of a narrow key's exponent field;
`verify-km` on all of S4 and S5;
`verify-km --pi 54321 --max-pairs K` at caps that stop the Groebner
certificate on its first pair, inside it and on its last pair, and at one
it finishes within (a cap of K stops on pair K + 1, counted as Buchberger
counts), so the verdicts and the `pairs_processed` of budget exits are
compared too; `verify-all --n 3` and `verify-all --n 5 --samples 2`;
`verify-all --n 1 --samples 1 --max-pairs 0`, whose degeneration rows run
out of budget (null rows, exit 3, no failures); `groebner --ideal` on
the ideal files of IDEALS, written to a temporary directory: two
named-variable ideals under `lex` and `grevlex`, a `--max-pairs 2` and a
`--max-degree 3` budget exit (the latter on a generator whose lex lead has
lower degree than its tail), a 2x2 matrix ideal with an extra variable `t`
under `antidiagonal`, an exponent too wide for the order's key fields
(exit 2), under `lex` and `grevlex` two leads whose lcm overflows the degree
field (exit 2, raised when the pair is created), and under `lex` and
`grevlex` the zero generators the kernel drops: only zeros, no generators
at all, and a zero among nonzero ones, and under `antidiagonal` a 2x2 matrix
ideal with an exponent of 127 and one with 128, and one whose leads' lcm
passes degree 127;
`--config` runs on the config files of CONFIGS, written to the same
directory, each followed by the same command without the config, so a value
that outlives its run shows: a config that supplies `--n` to `verify-all`
and one that a given `--n` beats, `deep: true` alone and under a given
`--max-pairs`, `format: "text"`, `"max_pairs": "0"` (a string converted as
on the command line), the key `"max-pairs"`, keys that name no option, `"n":
"x"` where `--n` takes it (exit 2), where the flag is given and where the
command has no `--n`, a required `--iota` (never taken from a config, so exit
2) and a value outside `--format`'s choices (exit 2); and `--help` for the
program and each subcommand, so the order of the options is compared too.
The words are built here, not by the code under comparison.
"""

from __future__ import annotations

import difflib
import itertools
import json
import os
import subprocess
import sys
import tempfile

#: runs each argv of the JSON list on stdin through sporbits.cli.main and
#: prints [exit code, stdout] for each
RUNNER = r"""
import contextlib, io, json, os, sys
import sporbits
from sporbits.cli import main
if not os.path.abspath(sporbits.__file__).startswith(sys.argv[1] + os.sep):
    sys.exit(f"sporbits imported from {sporbits.__file__}, not from {sys.argv[1]}")
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue()])
json.dump(results, sys.stdout)
"""


#: ideal files for the groebner command: name -> (JSON body, order and budget flags)
IDEALS = {
    "named3": (
        {"variables": ["x", "y", "z"], "generators": ["x^2 + y*z - 2", "x*y - z^2 + 1", "y^2 - x*z + 3/2"]},
        [["--order", "lex"], ["--order", "grevlex"], ["--order", "grevlex", "--max-pairs", "2"]],
    ),
    "named4": (
        {"variables": ["a", "b", "c", "d"], "generators": ["a*b - c*d", "a^2*c - b^2*d", "a*c^2 - b*d^2"]},
        [["--order", "lex"], ["--order", "grevlex"]],
    ),
    "low-lead": (
        {"variables": ["x", "y", "z"], "generators": ["x - y^3", "y - z^4", "x*z - 1"]},
        [["--order", "lex", "--max-degree", "3"]],
    ),
    "matrix-t": (
        {
            "matrix_size": 2,
            "variables": ["m[1,1]", "m[1,2]", "m[2,1]", "m[2,2]", "t"],
            "generators": ["m[1,1]*m[2,2]-m[1,2]*m[2,1]", "t*m[1,1]-1"],
        },
        [["--order", "antidiagonal"]],
    ),
    "over-wide": ({"variables": ["x", "y"], "generators": ["x^70000 - y", "x*y - 1"]}, [["--order", "lex"]]),
    "overflowing-lcm": (
        {"variables": ["x", "y"], "generators": ["x^20000*y", "x*y^20000"]},
        [["--order", "lex"], ["--order", "grevlex"]],
    ),
    # at the edge of a narrow key's 7-bit exponent field, which the groebner
    # command never uses: exponents of 127 and 128, and leads whose lcm
    # passes degree 127
    "exponent-127": (
        {"matrix_size": 2, "generators": ["m[1,1]^127 - m[1,2]*m[2,1]", "m[1,2]*m[2,2] - m[2,1]"]},
        [["--order", "antidiagonal", "--max-degree", "300"], ["--order", "antidiagonal"]],
    ),
    "exponent-128": (
        {"matrix_size": 2, "generators": ["m[1,1]^128 - m[1,2]*m[2,1]", "m[1,2]*m[2,2] - m[2,1]"]},
        [["--order", "antidiagonal", "--max-degree", "300"]],
    ),
    "lcm-past-127": (
        {"matrix_size": 2, "generators": ["m[1,2]*m[1,1]^126 - m[2,1]^127", "m[1,2]^2 - m[1,1]^2"]},
        [["--order", "antidiagonal", "--max-degree", "300"]],
    ),
    "zeros": ({"variables": ["x", "y"], "generators": ["0", "0*x"]}, [["--order", "lex"], ["--order", "grevlex"]]),
    "no-generators": ({"variables": ["x", "y"], "generators": []}, [["--order", "lex"], ["--order", "grevlex"]]),
    "zero-among": (
        {"variables": ["x", "y"], "generators": ["x^2 - y", "0", "x*y - 1"]},
        [["--order", "lex"], ["--order", "grevlex"]],
    ),
}


#: config files for --config: name -> (JSON body, the argvs run after
#: `--config FILE`); each config run is followed by the same argv without it
CONFIGS = {
    "n2": ({"n": 2}, [["verify-all", "--samples", "2"], ["verify-all", "--n", "3", "--samples", "2"]]),
    "deep": (
        {"deep": True},
        [["verify-degeneration", "--iota", "216543"], ["verify-degeneration", "--iota", "216543", "--max-pairs", "4"]],
    ),
    "text": ({"format": "text"}, [["enumerate", "--n", "2"], ["boxes", "--iota", "351624"], ["verify-km", "--pi", "321"]]),
    "pairs-string": ({"max_pairs": "0"}, [["verify-km", "--pi", "54321"], ["verify-all", "--n", "1", "--samples", "1"]]),
    "pairs-hyphen": ({"max-pairs": 1}, [["verify-km", "--pi", "54321"]]),
    "no-option": ({"other": [1], "func": 1, "command": "poset"}, [["enumerate", "--n", "2"]]),
    "n-string": (
        {"n": "x"},
        [["verify-all"], ["verify-all", "--n", "1", "--samples", "1"], ["verify-km", "--pi", "21"]],
    ),
    "iota": ({"iota": "2143"}, [["boxes"], ["boxes", "--iota", "4321"]]),
    "bad-choice": ({"format": "xml"}, [["enumerate", "--n", "2"]]),
}

#: the subcommands, for their --help
SUBCOMMANDS = (
    "enumerate", "poset", "wiring", "boxes", "basics", "pairperms", "groebner",
    "orbit-ideal", "classify", "verify-km", "verify-degeneration", "verify-all",
)


def matchings(points: tuple[int, ...]):
    """Every perfect matching of `points`, as a tuple of pairs."""
    if not points:
        yield ()
    for k in range(1, len(points)):
        for rest in matchings(points[1:k] + points[k + 1 :]):
            yield ((points[0], points[k]),) + rest


def involutions(size: int) -> list[str]:
    """Every fixed-point-free involution of 1..size in lexicographic order, as
    a digit string below size 10 and comma-separated from there on."""
    words = []
    for pairs in matchings(tuple(range(1, size + 1))):
        word = [0] * size
        for a, b in pairs:
            word[a - 1], word[b - 1] = b, a
        words.append(word)
    sep = "," if size >= 10 else ""
    return [sep.join(map(str, w)) for w in sorted(words)]


def commands(fixtures: str) -> list[list[str]]:
    """The command list; the groebner commands read IDEALS and the --config
    commands CONFIGS from `fixtures`."""
    out = []
    for n in range(1, 6):
        out += [["enumerate", "--n", str(n)], ["poset", "--n", str(n)], ["poset", "--n", str(n), "--format", "dot"]]
    out += [["poset", "--n", "6"], ["poset", "--n", "6", "--format", "dot"], ["enumerate", "--n", "7"]]
    for word in involutions(6):
        out += [[cmd, "--iota", word] for cmd in ("boxes", "basics", "pairperms", "wiring", "orbit-ideal")]
    out += [[cmd, "--iota", word] for cmd in ("basics", "orbit-ideal", "pairperms") for word in involutions(8)]
    out += [[cmd, "--iota", word] for cmd in ("basics", "pairperms") for word in involutions(10)]
    for size in (2, 4, 6):
        out += [["verify-degeneration", "--deep", "--iota", word] for word in involutions(size)]
    out += [
        ["verify-degeneration", "--deep", "--iota", word]
        for word in ("21436587", "21437856", "21563487", "34126587", "43216587")
    ]
    # 2n = 8 left phases whose final reduction is real work
    out += [
        ["verify-degeneration", "--deep", "--iota", word]
        for word in ("84523761", "85432761", "86437251", "21754836", "67854123")
    ]
    # 216543's basis takes 10 pairs: budget exits on the first, in the middle,
    # on the last and past its degree 6, and a cap it finishes within
    deep = ["verify-degeneration", "--deep", "--iota", "216543"]
    out += [[*deep, "--max-pairs", str(k)] for k in (0, 4, 9, 10)] + [[*deep, "--max-degree", "6"]]
    # degree caps about the width of a narrow key's 7-bit exponent fields
    out += [[*deep, "--max-degree", str(k)] for k in (63, 64, 127, 128, 200)]
    for size in (4, 5):
        out += [["verify-km", "--pi", "".join(map(str, w))] for w in itertools.permutations(range(1, size + 1))]
    # 54321 has 20 minors, so 190 pairs: budget exits on the first, inside and on the last
    out += [["verify-km", "--pi", "54321", "--max-pairs", str(k)] for k in (0, 1, 17, 95, 189, 190)]
    out += [["verify-all", "--n", "3"], ["verify-all", "--n", "5", "--samples", "2"], ["verify-all", "--n", "7"]]
    out += [["verify-all", "--n", "1", "--samples", "1", "--max-pairs", "0"]]
    for name, (_, flags) in IDEALS.items():
        out += [["groebner", "--ideal", os.path.join(fixtures, f"{name}.json"), *f] for f in flags]
    for name, (_, argvs) in CONFIGS.items():
        for argv in argvs:
            out += [["--config", os.path.join(fixtures, f"{name}.config.json"), *argv], argv]
    out += [["--help"]] + [[command, "--help"] for command in SUBCOMMANDS]
    return out


def run_tree(src: str, argvs: list[list[str]]) -> list[tuple[int, str]]:
    src = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, src],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        cwd=src,
    )
    if proc.returncode != 0:
        sys.stderr.write(f"{src}: the command list did not run\n{proc.stderr}")
        sys.exit(2)
    return [(code, drop_timings(text)) for code, text in json.loads(proc.stdout)]


def drop_timings(text: str) -> str:
    """The text with a JSON report's `timings` key removed."""
    try:
        blob = json.loads(text)
    except ValueError:
        return text
    if not (isinstance(blob, dict) and "timings" in blob):
        return text
    del blob["timings"]
    return json.dumps(blob, indent=2, sort_keys=True) + "\n"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base_src, head_src = argv
    with tempfile.TemporaryDirectory() as fixtures:
        for name, (blob, _) in IDEALS.items():
            with open(os.path.join(fixtures, f"{name}.json"), "w") as fh:
                json.dump(blob, fh)
        for name, (blob, _) in CONFIGS.items():
            with open(os.path.join(fixtures, f"{name}.config.json"), "w") as fh:
                json.dump(blob, fh)
        argvs = commands(fixtures)
        base, head = run_tree(base_src, argvs), run_tree(head_src, argvs)
    differ = 0
    for args, (base_code, base_out), (head_code, head_out) in zip(argvs, base, head):
        if (base_code, base_out) == (head_code, head_out):
            continue
        differ += 1
        print(f"DIFFERS: sporbits {' '.join(args)}: exit {base_code} -> {head_code}")
        diff = difflib.unified_diff(
            base_out.splitlines(), head_out.splitlines(), base_src, head_src, lineterm=""
        )
        print("\n".join(itertools.islice(diff, 40)))
    print(f"{len(argvs)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
