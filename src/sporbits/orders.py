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

Keys come in two layouts.  The default puts every field in a 16-bit slot,
the polynomial layout.  A `narrow` order gives each exponent an 8-bit slot
(a NARROW_BITS = 7-bit field) and keeps the weight rows and the degree at
16 bits, about half as many bits per key for matrix rings; the
weight-refined order takes its tie-break's layout.  The two verifiers of
symplectic key narrow, as their exponents stay far below 128 (the
degeneration check reruns at 16 bits if one does not); every other caller
keys at 16 bits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress
from operator import itemgetter, mul
from typing import Callable, Sequence

# a key is a run of big-endian slots, each a field under a guard bit: 16-bit
# slots of FIELD_BITS-wide fields, as a polynomial key is (FIELD_MASK is
# MAX_EXPONENT), except the exponent slots of a narrow key
from sporbits.polynomials import FIELD_BITS, MAX_EXPONENT as FIELD_MASK, Monomial, VariableSet

#: the width of a narrow key's exponent fields, each under a guard bit in an
#: 8-bit slot
NARROW_BITS = 7


@dataclass(frozen=True)
class TermOrder:
    """The matrix order of the `weights` rows stacked over the permutation
    matrix of `ranking` (variable indices from highest to lowest).  The key
    is built once from the matrix unless one is given; `name` is display
    only and `narrow` is layout only, and neither takes part in equality.

    Key contract (Monagan-Pearce, "POLY: a new polynomial data structure for
    Maple 17", 2013): `key(m)` is one int of fields, each under a guard bit
    (`guards`) in a big-endian slot, most significant first: the dot
    products of m with the weight rows, the exponents of m in `ranking`
    order, and its degree `key(m) & FIELD_MASK`.  Each slot is 16 bits wide,
    a FIELD_BITS-wide field, except that a `narrow` key gives each exponent
    an 8-bit slot, a NARROW_BITS-wide field: `bits` wide in all.  So keys
    compare as the matrix order does, key(a) + key(b) == key(a + b), a
    divides b exactly when (key(b) - key(a)) & guards == 0, exponents(key(m))
    == m, and a monomial whose fields overflow raises ValueError.  `units[v]`
    is the key of variable v alone, and key(m) is the sum of m[v] * units[v]
    (checked for overflow first); `exponents` reads a key's slots back with
    one struct call.  A given key must keep that contract, so a layout is
    picked when an order is built: dataclasses.replace(order, narrow=...)
    would keep the old layout's key."""

    vs: VariableSet
    weights: tuple[tuple[int, ...], ...]
    ranking: tuple[int, ...]
    name: str = field(compare=False)
    key: Callable[[Monomial], int] | None = field(default=None, compare=False, repr=False)
    narrow: bool = field(default=False, compare=False)
    exponents: Callable[[int], Monomial] = field(init=False, compare=False, repr=False)
    guards: int = field(init=False, compare=False, repr=False)
    units: tuple[int, ...] = field(init=False, compare=False, repr=False)
    bits: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rows, rank, n = self.weights, self.ranking, len(self.vs)
        if sorted(rank) != list(range(n)):
            raise ValueError("ranking must be a permutation of all variable indices")
        if any(len(row) != n for row in rows):
            raise ValueError("every weight row needs one entry per variable")
        if min(chain.from_iterable(rows), default=0) < 0:
            raise ValueError("weight rows must be non-negative")
        # each field's slot width, most significant first, and its shift
        exp_bits = NARROW_BITS if self.narrow else FIELD_BITS
        widths = [FIELD_BITS + 1] * len(rows) + [exp_bits + 1] * n + [FIELD_BITS + 1]
        shifts = list(accumulate(reversed(widths[1:]), initial=0))[::-1]
        # per variable: its slot, from one pass over the ranking, and its key
        # (packed matrix column + degree 1), the rows added one at a time
        slots, units = [0] * n, [1] * n
        for s, v in enumerate(rank, len(rows)):
            slots[v] = s
            units[v] += 1 << shifts[s]
        for row, shift in zip(rows, shifts):
            units = [u + (x << shift) for u, x in zip(units, row)]
        units = tuple(units)
        # every field fits up to this degree
        exp_mask = (1 << exp_bits) - 1
        cap = min(exp_mask, FIELD_MASK // max([1, *chain.from_iterable(rows)]))
        fields = f"{exp_bits}-bit exponent" if self.narrow else f"{FIELD_BITS}-bit key"

        def key(m: Monomial) -> int:
            degree = sum(m)
            if degree > cap and (max(m) > exp_mask or max([degree, *(sum(map(mul, row, m)) for row in rows)]) > FIELD_MASK):
                raise ValueError(f"monomial {m} overflows the {fields} fields")
            return sum(map(mul, compress(m, m), compress(units, m)))  # nonzero exponents only

        # the exponent slots in variable order, and the degree slot, which
        # keeps the getter's result a tuple when there is one variable
        layout = struct.Struct(f">{len(rows)}H{n}{'B' if self.narrow else 'H'}H")
        unpack, pick, size = layout.unpack, itemgetter(*slots, len(widths) - 1), layout.size
        object.__setattr__(self, "exponents", lambda k: pick(unpack(k.to_bytes(size, "big")))[:-1])
        object.__setattr__(self, "guards", sum(1 << s + w - 1 for s, w in zip(shifts, widths)))
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "bits", 8 * size)
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


def antidiagonal_order(vs: VariableSet, narrow: bool = False) -> TermOrder:
    """Lex with the NE-to-SW raster ranking: the leading term of every minor
    of the generic matrix is its antidiagonal product.  `narrow` picks the
    key layout with 8-bit exponent slots (TermOrder)."""
    return TermOrder(vs, (), antidiagonal_ranking(vs), "antidiagonal", narrow=narrow)


def weight_refined_order(
    vs: VariableSet,
    weights: Sequence[int],
    tie_break: TermOrder | None = None,
) -> TermOrder:
    """Total order refining a non-negative weight vector, minimal weight
    preferred, graded by total degree (see module docstring).

    Its rows are (1, ..., 1) and max(w) - w over the tie-break's rows, and
    its ranking and its key layout, 16-bit or narrow, are the tie-break's,
    so a key holds two things callers read without unpacking it: its lowest
    len(tie.weights) + len(vs) + 1 slots are exactly tie.key(m)
    (`tie_key_mask`), and its top two fields, the degree and max(w) - w, are
    equal on two monomials of one degree exactly when their w-weights are
    (`weight_mask`)."""
    w = tuple(int(x) for x in weights)
    if len(w) != len(vs):
        raise ValueError("one weight per variable required")
    if any(x < 0 for x in w):
        raise ValueError("negative weights rejected")
    tie = tie_break if tie_break is not None else lex_order(vs)
    rows = ((1,) * len(w), tuple(max(w) - x for x in w)) + tie.weights
    return TermOrder(vs, rows, tie.ranking, f"weight{w}/{tie.name}", narrow=tie.narrow)


def tie_key_mask(tie: TermOrder) -> int:
    """The mask of the low slots of a key under any weight_refined_order over
    `tie`: they hold tie.key(m), all tie.bits of it."""
    return (1 << tie.bits) - 1


def weight_mask(order: TermOrder, weights: Sequence[int]) -> int:
    """The mask of the top two fields of a key under `order`, its degree and
    max(w) - w fields: key & weight_mask(order, w) is the least key of the
    same degree and w-weight.  ValueError unless `order` begins with the two
    rows of weight_refined_order(vs, w, ...), so that it refines w on
    homogeneous polynomials."""
    w = tuple(int(x) for x in weights)
    if order.weights[:2] != ((1,) * len(w), tuple(max(w, default=0) - x for x in w)):
        raise ValueError("the order does not refine these weights")
    return -1 << order.bits - 2 * (FIELD_BITS + 1)


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
