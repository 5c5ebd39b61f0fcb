"""Buchberger's algorithm and the ideal operations built on it: normal forms,
reduced Groebner bases, intersection by elimination, initial forms and
initial ideals under a column-weight vector, and ideal equality.

Everything is deterministic: the pair queue uses the normal selection
strategy (lowest lcm degree first, ties by the term order, then by index) and
reduced bases are sorted by leading monomial.  Budgets cap the number of
S-pairs processed, the total degree of intermediate polynomials, and wall
time; exceeding one raises BudgetExceeded carrying the partial statistics,
never a silently truncated answer.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from sporbits.orders import TermOrder, weight_refined_order, elimination_order
from sporbits.polynomials import Monomial, Polynomial, VariableSet


@dataclass
class GBBudget:
    """Caps for one Groebner computation."""

    max_pairs: int = 100_000
    max_degree: int = 60
    max_seconds: float = 600.0


#: the raised caps of deep mode, for the larger algebraic checks
DEEP_BUDGET = GBBudget(max_pairs=2_000_000, max_degree=80, max_seconds=3600.0)


class BudgetExceeded(RuntimeError):
    """A budget cap was hit; carries partial progress statistics."""

    def __init__(self, reason: str, stats: dict):
        self.reason = reason
        self.stats = dict(stats)
        super().__init__(f"budget exhausted ({reason}): {self.stats}")


@dataclass
class Ideal:
    """Generators plus cached reduced Groebner bases, one per term order."""

    vs: VariableSet
    generators: Sequence[Polynomial]
    _gb_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.generators = tuple(g for g in self.generators if not g.is_zero())

    def is_zero(self) -> bool:
        return not self.generators

    def groebner_basis(self, order: TermOrder, budget: GBBudget | None = None) -> list[Polynomial]:
        cached = self._gb_cache.get(order)
        if cached is None:
            cached = buchberger(list(self.generators), order, budget)
            self._gb_cache[order] = cached
        return list(cached)

    def to_json(self) -> dict:
        return {
            "variables": list(self.vs.names),
            "generators": [str(g) for g in self.generators],
        }


# ---------------------------------------------------------------------------
# monomial helpers


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _mono_add(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _reduce_terms(
    terms: dict[Monomial, Fraction],
    reducers: list[tuple[Monomial, Fraction, list[tuple[Monomial, Fraction]]]],
    key,
) -> dict[Monomial, Fraction]:
    """Full normal form of a term dict against prepared reducers."""
    work = dict(terms)
    out: dict[Monomial, Fraction] = {}
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        for lead, lead_c, tail in reducers:
            if _divides(lead, mono):
                q = _mono_sub(mono, lead)
                factor = coeff / lead_c
                for m2, c2 in tail:
                    mm = _mono_add(m2, q)
                    c = work.get(mm, Fraction(0)) - factor * c2
                    if c:
                        work[mm] = c
                    else:
                        work.pop(mm, None)
                break
        else:
            out[mono] = coeff
    return out


def _prepare(
    G: Sequence[Polynomial], order: TermOrder
) -> list[tuple[Monomial, Fraction, list[tuple[Monomial, Fraction]]]]:
    reducers = []
    for g in G:
        if g.is_zero():
            continue
        lead = order.leading_monomial(g.terms)
        lead_c = g.terms[lead]
        tail = [(m, c) for m, c in g.terms.items() if m != lead]
        reducers.append((lead, lead_c, tail))
    # try low-degree leads first; deterministic
    reducers.sort(key=lambda r: (sum(r[0]), order.key(r[0])))
    return reducers


def normal_form(f: Polynomial, G: Sequence[Polynomial], order: TermOrder) -> Polynomial:
    """Remainder of f under multivariate division by G: no monomial of the
    result is divisible by any leading monomial of G, and f - result lies in
    the ideal generated by G."""
    reducers = _prepare(G, order)
    if not reducers:
        return f
    return Polynomial(f.vs, _reduce_terms(f.terms, reducers, order.key))


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    lf, lg = order.leading_monomial(f.terms), order.leading_monomial(g.terms)
    lcm = _mono_lcm(lf, lg)
    cf, cg = f.terms[lf], g.terms[lg]
    mf = Polynomial(f.vs, {_mono_sub(lcm, lf): Fraction(1) / cf})
    mg = Polynomial(g.vs, {_mono_sub(lcm, lg): Fraction(1) / cg})
    return mf * f - mg * g


def _monic(p: Polynomial, order: TermOrder) -> Polynomial:
    lead = order.leading_monomial(p.terms)
    return p.scale(Fraction(1) / p.terms[lead])


def buchberger(
    generators: Sequence[Polynomial],
    order: TermOrder,
    budget: GBBudget | None = None,
) -> list[Polynomial]:
    """Reduced Groebner basis by Buchberger's algorithm.

    Normal selection strategy plus both classical pair-elimination criteria
    (coprime leading terms; the chain criterion).  The result is monic,
    auto-reduced, and sorted by leading monomial, so it is unique for the
    ideal and order.
    """
    budget = budget or GBBudget()
    start = time.monotonic()
    key = order.key

    G: list[Polynomial] = []
    leads: list[Monomial] = []
    for g in generators:
        if not g.is_zero():
            g = _monic(g, order)
            G.append(g)
            leads.append(order.leading_monomial(g.terms))

    pairs = {(i, j) for i, j in itertools.combinations(range(len(G)), 2)}
    done: set[tuple[int, int]] = set()
    stats = {"pairs_processed": 0, "basis_size": len(G), "max_degree": max((g.total_degree() for g in G), default=0)}

    def check_budget():
        if stats["pairs_processed"] > budget.max_pairs:
            raise BudgetExceeded("pair cap", stats)
        if stats["max_degree"] > budget.max_degree:
            raise BudgetExceeded("degree cap", stats)
        if time.monotonic() - start > budget.max_seconds:
            raise BudgetExceeded("time cap", stats)

    def coprime(i: int, j: int) -> bool:
        return all(min(a, b) == 0 for a, b in zip(leads[i], leads[j]))

    def chain(i: int, j: int) -> bool:
        lcm = _mono_lcm(leads[i], leads[j])
        for k in range(len(G)):
            if k in (i, j):
                continue
            if (
                _divides(leads[k], lcm)
                and (min(i, k), max(i, k)) in done
                and (min(j, k), max(j, k)) in done
            ):
                return True
        return False

    while pairs:
        pair = min(
            pairs,
            key=lambda ij: (
                sum(_mono_lcm(leads[ij[0]], leads[ij[1]])),
                key(_mono_lcm(leads[ij[0]], leads[ij[1]])),
                ij,
            ),
        )
        pairs.discard(pair)
        done.add(pair)
        i, j = pair
        stats["pairs_processed"] += 1
        check_budget()
        if coprime(i, j) or chain(i, j):
            continue
        h = normal_form(s_polynomial(G[i], G[j], order), G, order)
        if h.is_zero():
            continue
        h = _monic(h, order)
        stats["max_degree"] = max(stats["max_degree"], h.total_degree())
        check_budget()
        G.append(h)
        leads.append(order.leading_monomial(h.terms))
        new = len(G) - 1
        stats["basis_size"] = len(G)
        for k in range(new):
            pairs.add((k, new))

    return _reduce_basis(G, order)


def _reduce_basis(G: Sequence[Polynomial], order: TermOrder) -> list[Polynomial]:
    """Minimalize then fully tail-reduce a Groebner basis."""
    items = [(order.leading_monomial(g.terms), g) for g in G if not g.is_zero()]
    # minimal: drop any element whose lead is divisible by another lead
    minimal: list[tuple[Monomial, Polynomial]] = []
    for lead, g in sorted(items, key=lambda lg: (sum(lg[0]), order.key(lg[0]))):
        if not any(_divides(l2, lead) for l2, _ in minimal):
            minimal.append((lead, g))
    reduced = []
    for idx, (lead, g) in enumerate(minimal):
        others = [h for k, (_, h) in enumerate(minimal) if k != idx]
        r = normal_form(g, others, order) if others else g
        if not r.is_zero():
            reduced.append(_monic(r, order))
    reduced.sort(key=lambda p: order.key(order.leading_monomial(p.terms)))
    return reduced


def in_ideal(f: Polynomial, gb: Sequence[Polynomial], order: TermOrder) -> bool:
    """Membership test against an already-computed Groebner basis."""
    return normal_form(f, gb, order).is_zero()


def ideal_intersection(
    I: Ideal,
    J: Ideal,
    budget: GBBudget | None = None,
    inner: TermOrder | None = None,
) -> Ideal:
    """I cap J via elimination of t from t*I + (1-t)*J."""
    if I.vs.names != J.vs.names:
        raise ValueError("mixed variable sets")
    if I.is_zero() or J.is_zero():
        return Ideal(I.vs, [])
    vs = I.vs
    aux = "t" if "t" not in vs.index else "t_elim"
    ext = vs.with_elimination(aux)
    t = Polynomial.variable(ext, aux)
    one_minus_t = Polynomial.constant(ext, 1) - t
    gens = [t * f.extend(ext) for f in I.generators]
    gens += [one_minus_t * g.extend(ext) for g in J.generators]
    order = elimination_order(ext, n_elim=1, inner=inner)
    gb = buchberger(gens, order, budget)
    base = len(vs)
    kept = [p.restrict(vs) for p in gb if not any(any(m[base:]) for m in p.terms)]
    return Ideal(vs, kept)


def initial_form(f: Polynomial, weights: Sequence[int]) -> Polynomial:
    """The terms of minimal total weight (those surviving t -> 0)."""
    w = [int(x) for x in weights]
    if any(x < 0 for x in w):
        raise ValueError("negative weights rejected")
    if f.is_zero():
        return f
    def wt(mono: Monomial) -> int:
        return sum(e * x for e, x in zip(mono, w))
    best = min(wt(m) for m in f.terms)
    return Polynomial(f.vs, {m: c for m, c in f.terms.items() if wt(m) == best})


def initial_ideal(
    I: Ideal,
    weights: Sequence[int],
    tie_break: TermOrder | None = None,
    budget: GBBudget | None = None,
) -> Ideal:
    """Initial ideal under a weight vector: reduced GB under the
    weight-refined order, then initial forms of the basis."""
    if I.is_zero():
        return Ideal(I.vs, [])
    order = weight_refined_order(I.vs, weights, tie_break)
    gb = I.groebner_basis(order, budget)
    return Ideal(I.vs, [initial_form(g, weights) for g in gb])


def ideal_equals(
    I: Ideal, J: Ideal, order: TermOrder, budget: GBBudget | None = None
) -> bool:
    """Equality via coincidence of reduced Groebner bases."""
    if I.vs.names != J.vs.names:
        raise ValueError("mixed variable sets")
    gi = I.groebner_basis(order, budget)
    gj = J.groebner_basis(order, budget)
    return gi == gj
