"""Monomial orders as values.

A TermOrder is a matrix order in Robbiano's sense: non-negative integer
weight rows stacked over a variable ranking.  Monomials compare by their dot
product with each row in turn, then lexicographically in the ranking, and
orders compare and hash by that matrix.  The presets are data, all genuine
term orders (total, multiplicative, with 1 minimal):

* lex with an explicit variable ranking,
* graded reverse lex,
* the antidiagonal raster order (lex ranking the top-right matrix entry
  highest, rastering right to left then top to bottom) which picks the
  antidiagonal term of every minor,
* weight-refined orders for computing initial ideals under a column-weight
  vector,
* the elimination order of a ring extending an inner order's ring: the
  extra variables, as one block, strictly above the inner ring.

The weight-refined order compares total degree first, then prefers LOWER
weight (the terms surviving t -> 0 are the minimal-weight ones) by the row
max(w) - w, which sorts like -w under the degree row, then falls back to a
total tie-break.  Comparing raw weight first, with low weight large, would
put 1 above positive-weight variables and so would not be a term order;
grading by total degree restores well-ordering and agrees with the pure
weight comparison on homogeneous polynomials, which is the only place initial
ideals are taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import mul
from typing import Callable, Sequence

from sporbits.polynomials import Monomial, VariableSet

#: width of one key field, and its largest value
FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1


@dataclass(frozen=True)
class TermOrder:
    """The matrix order of the `weights` rows stacked over the permutation
    matrix of `ranking` (variable indices from highest to lowest).  The key
    is built once from the matrix unless one is given; `name` is display
    only and takes no part in equality.

    Key contract (Monagan-Pearce, "POLY: a new polynomial data structure for
    Maple 17", 2013): `key(m)` is one int of FIELD_BITS-wide fields, each
    under a guard bit (`guards`), most significant first: the dot products of
    m with the weight rows, the exponents of m in `ranking` order, and its
    degree `key(m) & FIELD_MASK`.  So keys compare as the matrix order does,
    key(a) + key(b) == key(a + b), a divides b exactly when (key(b) - key(a))
    & guards == 0, exponents(key(m)) == m, and a monomial whose fields
    overflow raises ValueError.  A given key must keep that contract."""

    vs: VariableSet
    weights: tuple[tuple[int, ...], ...]
    ranking: tuple[int, ...]
    name: str = field(compare=False)
    key: Callable[[Monomial], int] | None = field(default=None, compare=False, repr=False)
    exponents: Callable[[int], Monomial] = field(init=False, compare=False, repr=False)
    guards: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rows, rank, n = self.weights, self.ranking, len(self.vs)
        if sorted(rank) != list(range(n)):
            raise ValueError("ranking must be a permutation of all variable indices")
        if any(len(row) != n for row in rows):
            raise ValueError("every weight row needs one entry per variable")
        if any(x < 0 for row in rows for x in row):
            raise ValueError("weight rows must be non-negative")
        slot, fields = FIELD_BITS + 1, len(rows) + n + 1
        # per variable: its exponent shift, and its key (packed matrix column + degree 1)
        shifts = [slot * (n - rank.index(v)) for v in range(n)]
        row_shifts = [slot * (fields - 1 - r) for r in range(len(rows))]
        cols = [sum(row[v] << h for row, h in zip(rows, row_shifts)) + (1 << s) + 1 for v, s in enumerate(shifts)]
        cap = FIELD_MASK // max([1, *(x for row in rows for x in row)])  # fields fit up to this degree

        def key(m: Monomial) -> int:
            if sum(m) > cap and max([sum(m), *(sum(map(mul, row, m)) for row in rows)]) > FIELD_MASK:
                raise ValueError(f"monomial {m} overflows the {FIELD_BITS}-bit key fields")
            return sum(map(mul, compress(m, m), compress(cols, m)))  # nonzero exponents only

        object.__setattr__(self, "exponents", lambda k: tuple([k >> s & FIELD_MASK for s in shifts]))
        object.__setattr__(self, "guards", sum(1 << slot * f + FIELD_BITS for f in range(fields)))
        if self.key is None:
            object.__setattr__(self, "key", key)


def lex_order(vs: VariableSet, ranking: Sequence[int] | None = None) -> TermOrder:
    """Lexicographic order; ranking lists variable indices from highest to
    lowest (default: index order)."""
    rank = tuple(ranking) if ranking is not None else tuple(range(len(vs)))
    return TermOrder(vs, (), rank, f"lex{rank}")


def grevlex_order(vs: VariableSet) -> TermOrder:
    """Graded reverse lexicographic order in index order."""
    n = len(vs)
    rows = tuple((1,) * (n - k) + (0,) * k for k in range(n))
    return TermOrder(vs, rows, tuple(range(n)), "grevlex")


def antidiagonal_ranking(vs: VariableSet) -> tuple[int, ...]:
    """Variable ranking m[1,N] > ... > m[1,1] > m[2,N] > ...; any names past
    the matrix variables rank below them, in index order."""
    n = vs.matrix_size
    if not n:
        raise ValueError("antidiagonal order needs matrix variables")
    rank = [
        vs.matrix_var(i, j)
        for i in range(1, n + 1)
        for j in range(n, 0, -1)
    ]
    rank.extend(k for k in range(len(vs)) if k >= n * n)
    return tuple(rank)


def antidiagonal_order(vs: VariableSet) -> TermOrder:
    """Lex with the NE-to-SW raster ranking: the leading term of every minor
    of the generic matrix is its antidiagonal product."""
    return TermOrder(vs, (), antidiagonal_ranking(vs), "antidiagonal")


def weight_refined_order(
    vs: VariableSet,
    weights: Sequence[int],
    tie_break: TermOrder | None = None,
) -> TermOrder:
    """Total order refining a non-negative weight vector, minimal weight
    preferred, graded by total degree (see module docstring)."""
    w = tuple(int(x) for x in weights)
    if len(w) != len(vs):
        raise ValueError("one weight per variable required")
    if any(x < 0 for x in w):
        raise ValueError("negative weights rejected")
    tie = tie_break if tie_break is not None else lex_order(vs)
    rows = ((1,) * len(w), tuple(max(w) - x for x in w)) + tie.weights
    return TermOrder(vs, rows, tie.ranking, f"weight{w}/{tie.name}")


def elimination_order(vs: VariableSet, inner: TermOrder) -> TermOrder:
    """Block order on a ring extending inner's: the variables of vs past
    inner.vs form the block, which compares first (lex within the block), so
    any monomial touching it beats every monomial of the inner ring.  The
    inner rows are padded over the block, which ties by the time they are
    read."""
    base, k = len(inner.vs), len(vs) - len(inner.vs)
    if k <= 0 or vs.names[:base] != inner.vs.names:
        raise ValueError("vs must extend the inner order's variables by an elimination block")
    block = tuple(tuple(int(c == v) for c in range(len(vs))) for v in range(base, len(vs)))
    rows = block + tuple(row + (0,) * k for row in inner.weights)
    rank = inner.ranking + tuple(range(base, len(vs)))
    return TermOrder(vs, rows, rank, f"elim[{k}]/{inner.name}")
