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

import struct
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import itemgetter, mul
from typing import Callable, Sequence

# a key is a run of big-endian 16-bit slots, each a FIELD_BITS-wide field
# under a guard bit, as a polynomial key is: FIELD_MASK is MAX_EXPONENT
from sporbits.polynomials import FIELD_BITS, MAX_EXPONENT as FIELD_MASK, Monomial, VariableSet


@dataclass(frozen=True)
class TermOrder:
    """The matrix order of the `weights` rows stacked over the permutation
    matrix of `ranking` (variable indices from highest to lowest).  The key
    is built once from the matrix unless one is given; `name` is display
    only and takes no part in equality.

    Key contract (Monagan-Pearce, "POLY: a new polynomial data structure for
    Maple 17", 2013): `key(m)` is one int of FIELD_BITS-wide fields, each
    under a guard bit (`guards`) in a 16-bit slot, most significant first:
    the dot products of m with the weight rows, the exponents of m in
    `ranking` order, and its degree `key(m) & FIELD_MASK`.  So keys compare
    as the matrix order does, key(a) + key(b) == key(a + b), a divides b
    exactly when (key(b) - key(a)) & guards == 0, exponents(key(m)) == m,
    and a monomial whose fields overflow raises ValueError.  `units[v]` is
    the key of variable v alone, and key(m) is the sum of m[v] * units[v]
    (checked for overflow first); `exponents` reads a key's slots back with
    one struct call.  A given key must keep that contract."""

    vs: VariableSet
    weights: tuple[tuple[int, ...], ...]
    ranking: tuple[int, ...]
    name: str = field(compare=False)
    key: Callable[[Monomial], int] | None = field(default=None, compare=False, repr=False)
    exponents: Callable[[int], Monomial] = field(init=False, compare=False, repr=False)
    guards: int = field(init=False, compare=False, repr=False)
    units: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rows, rank, n = self.weights, self.ranking, len(self.vs)
        if sorted(rank) != list(range(n)):
            raise ValueError("ranking must be a permutation of all variable indices")
        if any(len(row) != n for row in rows):
            raise ValueError("every weight row needs one entry per variable")
        if min(chain.from_iterable(rows), default=0) < 0:
            raise ValueError("weight rows must be non-negative")
        slot, fields = FIELD_BITS + 1, len(rows) + n + 1
        # per variable: its slot, from one pass over the ranking, and its key
        # (packed matrix column + degree 1), the rows added one at a time
        slots, units = [0] * n, [1] * n
        for s, v in enumerate(rank, len(rows)):
            slots[v] = s
            units[v] += 1 << slot * (fields - 1 - s)
        for r, row in enumerate(rows):
            shift = slot * (fields - 1 - r)
            units = [u + (x << shift) for u, x in zip(units, row)]
        units = tuple(units)
        cap = FIELD_MASK // max([1, *chain.from_iterable(rows)])  # fields fit up to this degree

        def key(m: Monomial) -> int:
            if sum(m) > cap and max([sum(m), *(sum(map(mul, row, m)) for row in rows)]) > FIELD_MASK:
                raise ValueError(f"monomial {m} overflows the {FIELD_BITS}-bit key fields")
            return sum(map(mul, compress(m, m), compress(units, m)))  # nonzero exponents only

        # the exponent slots in variable order, and the degree slot, which
        # keeps the getter's result a tuple when there is one variable
        unpack, pick, size = struct.Struct(f">{fields}H").unpack, itemgetter(*slots, fields - 1), 2 * fields
        object.__setattr__(self, "exponents", lambda k: pick(unpack(k.to_bytes(size, "big")))[:-1])
        object.__setattr__(self, "guards", sum(1 << slot * f + FIELD_BITS for f in range(fields)))
        object.__setattr__(self, "units", units)
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
    preferred, graded by total degree (see module docstring).

    Its rows are (1, ..., 1) and max(w) - w over the tie-break's rows, and
    its ranking is the tie-break's, so a key holds two things callers read
    without unpacking it: its lowest len(tie.weights) + len(vs) + 1 slots are
    exactly tie.key(m) (`tie_key_mask`), and its top two fields, the degree
    and max(w) - w, are equal on two monomials of one degree exactly when
    their w-weights are (`weight_mask`)."""
    w = tuple(int(x) for x in weights)
    if len(w) != len(vs):
        raise ValueError("one weight per variable required")
    if any(x < 0 for x in w):
        raise ValueError("negative weights rejected")
    tie = tie_break if tie_break is not None else lex_order(vs)
    rows = ((1,) * len(w), tuple(max(w) - x for x in w)) + tie.weights
    return TermOrder(vs, rows, tie.ranking, f"weight{w}/{tie.name}")


def tie_key_mask(tie: TermOrder) -> int:
    """The mask of the low slots of a key under any weight_refined_order over
    `tie`: they hold tie.key(m)."""
    return (1 << (FIELD_BITS + 1) * (len(tie.weights) + len(tie.vs) + 1)) - 1


def weight_mask(order: TermOrder, weights: Sequence[int]) -> int:
    """The mask of the top two fields of a key under `order`, its degree and
    max(w) - w fields: key & weight_mask(order, w) is the least key of the
    same degree and w-weight.  ValueError unless `order` begins with the two
    rows of weight_refined_order(vs, w, ...), so that it refines w on
    homogeneous polynomials."""
    w = tuple(int(x) for x in weights)
    if order.weights[:2] != ((1,) * len(w), tuple(max(w, default=0) - x for x in w)):
        raise ValueError("the order does not refine these weights")
    return -1 << (FIELD_BITS + 1) * (len(order.weights) + len(order.vs) - 1)


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
