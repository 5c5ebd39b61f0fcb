"""Count the code lines of Python sources, without docstrings, comments or
blank lines.

    python scripts/code_lines.py [PATH ...]

Each PATH is a file or a directory searched for `*.py` files; the default
is `src`.  A line counts when a token other than a comment covers it, and a
statement made of string literals alone (a docstring) covers none, so a
multi-line expression counts every line it spans.  Prints one count per
file and the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

#: tokens that are no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type not in _LAYOUT:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv or ["src"]]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        count = code_lines(f)
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
