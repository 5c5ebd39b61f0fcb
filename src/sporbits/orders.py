"""Monomial orders.

A TermOrder wraps a key function from exponent tuples to sortable tuples; the
largest key is the leading monomial.  All orders built here are genuine term
orders (total, multiplicative, with 1 minimal):

* lex with an explicit variable ranking,
* graded reverse lex,
* the antidiagonal raster order (lex ranking the top-right matrix entry
  highest, rastering right to left then top to bottom) which picks the
  antidiagonal term of every minor,
* elimination-block orders (auxiliary block strictly above the base ring),
* weight-refined orders for computing initial ideals under a column-weight
  vector.

The weight-refined order compares total degree first, then prefers LOWER
weight (the terms surviving t -> 0 are the minimal-weight ones), then falls
back to a total tie-break.  Comparing raw weight first, with low weight large,
would put 1 above positive-weight variables and so would not be a term order;
grading by total degree restores well-ordering and agrees with the pure
weight comparison on homogeneous polynomials, which is the only place initial
ideals are taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from sporbits.polynomials import Monomial, VariableSet


@dataclass(frozen=True)
class TermOrder:
    """A total multiplicative monomial order with 1 minimal."""

    name: str
    vs: VariableSet
    key: Callable[[Monomial], tuple] = field(compare=False)

    def leading_monomial(self, terms: dict) -> Monomial:
        return max(terms, key=self.key)


def lex_order(vs: VariableSet, ranking: Sequence[int] | None = None) -> TermOrder:
    """Lexicographic order; ranking lists variable indices from highest to
    lowest (default: index order)."""
    rank = tuple(ranking) if ranking is not None else tuple(range(len(vs)))
    if sorted(rank) != list(range(len(vs))):
        raise ValueError("ranking must be a permutation of all variable indices")

    def key(mono: Monomial) -> tuple:
        return tuple(mono[v] for v in rank)

    return TermOrder(name=f"lex{rank}", vs=vs, key=key)


def grevlex_order(vs: VariableSet) -> TermOrder:
    """Graded reverse lexicographic order in index order."""

    def key(mono: Monomial) -> tuple:
        return (sum(mono), tuple(-e for e in reversed(mono)))

    return TermOrder(name="grevlex", vs=vs, key=key)


def antidiagonal_ranking(vs: VariableSet) -> tuple[int, ...]:
    """Variable ranking m[1,N] > ... > m[1,1] > m[2,N] > ...; any non-matrix
    auxiliaries rank below all matrix variables."""
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
    order = lex_order(vs, antidiagonal_ranking(vs))
    return TermOrder(name="antidiagonal", vs=vs, key=order.key)


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
    tie_key = tie.key

    def key(mono: Monomial) -> tuple:
        return (sum(mono), -sum(e * wt for e, wt in zip(mono, w)), tie_key(mono))

    return TermOrder(name=f"weight{w}/{tie.name}", vs=vs, key=key)


def elimination_order(
    vs: VariableSet, n_elim: int | None = None, inner: TermOrder | None = None
) -> TermOrder:
    """Block order: the trailing elimination block compares first (lex within
    the block), so any monomial touching it beats every base-ring monomial."""
    k = vs.n_elim if n_elim is None else n_elim
    if k <= 0:
        raise ValueError("no elimination block")
    base = len(vs) - k
    if inner is None:
        inner = (
            antidiagonal_order(vs)
            if vs.matrix_size and vs.matrix_size**2 == base
            else lex_order(vs)
        )
    inner_key = inner.key

    def key(mono: Monomial) -> tuple:
        return (mono[base:], inner_key(mono[:base] + (0,) * k))

    return TermOrder(name=f"elim[{k}]/{inner.name}", vs=vs, key=key)
