"""Buchberger's algorithm and the ideal operations built on it: normal forms,
reduced Groebner bases, intersection by elimination, initial forms and
initial ideals under a column-weight vector, and ideal equality.

Division is heap-ordered (Monagan-Pearce, "Sparse polynomial division using
a heap", 2011): the pending terms of a reduction sit in a heap under the term
order, each term's order key is computed once, when the term enters, and the
terms leave largest first, exactly as a rescan for the maximum would take
them.  A divisor set is prepared once per basis (`Reducers`), and Buchberger
keeps it up to date as the basis grows.

Everything is deterministic: the pair queue is a heap under the normal
selection strategy (lowest lcm degree first, ties by the term order, then by
index), each pair entering it once, when it is created; reduced bases are
sorted by leading monomial.  Budgets cap the number of S-pairs processed, the
total degree of intermediate polynomials, and wall time; exceeding one raises
BudgetExceeded carrying the partial statistics, never a silently truncated
answer.
"""

from __future__ import annotations

import heapq
import itertools
import time
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, itemgetter, le, mul, neg, sub
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
    return all(map(le, a, b))


def _mono_sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def _mono_add(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


class Reducers:
    """A divisor set prepared for division under one term order.

    Each nonzero divisor is an entry (rank, lead, lead coefficient, tail),
    where rank is (degree, order key) of the leading monomial; entries are
    tried in ascending rank, low-degree leads first, ties in the order the
    divisors were added.  `add` keeps that order, so a set grown one divisor
    at a time equals one prepared from the whole list at once.
    """

    def __init__(self, G: Sequence[Polynomial], order: TermOrder):
        self.order = order
        self.entries: list[tuple[tuple, Monomial, Fraction, list[tuple[Monomial, Fraction]]]] = []
        for g in G:
            self.add(g)

    def add(self, g: Polynomial) -> Monomial | None:
        """Add a divisor; returns its leading monomial (None for zero)."""
        if g.is_zero():
            return None
        lead = self.order.leading_monomial(g.terms)
        tail = [(m, c) for m, c in g.terms.items() if m != lead]
        entry = ((sum(lead), self.order.key(lead)), lead, g.terms[lead], tail)
        insort(self.entries, entry, key=itemgetter(0))
        return lead


def _reduce_terms(
    terms: dict[Monomial, Fraction], reducers: list, order: TermOrder
) -> dict[Monomial, Fraction]:
    """Full normal form of a term dict against prepared reducer entries.

    The pending terms are keyed by their negated order key, so a min-heap of
    those keys pops the largest first, and each key is computed once, when
    its term enters; the monomial is read back off the key's exponent block
    (the TermOrder key contract).  A term that cancels leaves the dict but
    stays in the heap and is skipped when popped; the heap is rebuilt once
    such dead keys outnumber the live ones.  A popped term never comes back,
    because every reduction adds only smaller terms, so the terms leave in
    the order of a rescan for the largest and the remainder is the same.
    """
    key, exponents = order.key, order.exponents
    work = {tuple(map(neg, key(m))): c for m, c in terms.items()}
    heap = list(work)
    heapq.heapify(heap)
    out: dict[Monomial, Fraction] = {}
    while heap:
        nkey = heapq.heappop(heap)
        coeff = work.pop(nkey, None)
        if coeff is None:
            continue
        mono = tuple(map(neg, exponents(nkey)))
        for _, lead, lead_c, tail in reducers:
            if _divides(lead, mono):
                q = _mono_sub(mono, lead)
                factor = coeff / lead_c
                for m2, c2 in tail:
                    k2 = tuple(map(neg, key(_mono_add(m2, q))))
                    c = work.get(k2)
                    if c is None:
                        work[k2] = -factor * c2
                        heapq.heappush(heap, k2)
                    else:
                        c -= factor * c2
                        if c:
                            work[k2] = c
                        else:
                            del work[k2]
                if len(heap) > 2 * len(work):  # mostly dead keys
                    heap = list(work)
                    heapq.heapify(heap)
                break
        else:
            out[mono] = coeff
    return out


def normal_form(f: Polynomial, G: Sequence[Polynomial] | Reducers, order: TermOrder) -> Polynomial:
    """Remainder of f under multivariate division by G: no monomial of the
    result is divisible by any leading monomial of G, and f - result lies in
    the ideal generated by G.  G may be given prepared, as Reducers built
    under the same order."""
    if not isinstance(G, Reducers):
        G = Reducers(G, order)
    elif G.order != order:
        raise ValueError("reducers prepared under another term order")
    if not G.entries:
        return f
    return Polynomial(f.vs, _reduce_terms(f.terms, G.entries, order))


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
    reducers = Reducers((), order)
    for g in generators:
        if not g.is_zero():
            g = _monic(g, order)
            G.append(g)
            leads.append(reducers.add(g))

    # (lcm degree, lcm key, i, j): pushed once, when the pair is created
    pairs: list[tuple[int, tuple, int, int]] = []

    def push(i: int, j: int) -> None:
        lcm = _mono_lcm(leads[i], leads[j])
        heapq.heappush(pairs, (sum(lcm), key(lcm), i, j))

    for i, j in itertools.combinations(range(len(G)), 2):
        push(i, j)
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
        _, _, i, j = heapq.heappop(pairs)
        done.add((i, j))
        stats["pairs_processed"] += 1
        check_budget()
        if coprime(i, j) or chain(i, j):
            continue
        h = normal_form(s_polynomial(G[i], G[j], order), reducers, order)
        if h.is_zero():
            continue
        h = _monic(h, order)
        stats["max_degree"] = max(stats["max_degree"], h.total_degree())
        check_budget()
        G.append(h)
        leads.append(reducers.add(h))
        new = len(G) - 1
        stats["basis_size"] = len(G)
        for k in range(new):
            push(k, new)

    return _reduce_basis(reducers, G[0].vs) if G else []


def _reduce_basis(basis: Reducers, vs: VariableSet) -> list[Polynomial]:
    """Minimalize then fully tail-reduce a Groebner basis, given prepared."""
    # minimal: drop any element whose lead is divisible by an earlier lead
    minimal: list = []
    for entry in basis.entries:
        if not any(_divides(other[1], entry[1]) for other in minimal):
            minimal.append(entry)
    # no other lead divides a minimal lead, so each element keeps its lead
    reduced = []
    for idx, (rank, lead, lead_c, tail) in enumerate(minimal):
        terms = {lead: lead_c, **dict(tail)}
        others = minimal[:idx] + minimal[idx + 1:]
        if others:
            terms = _reduce_terms(terms, others, basis.order)
        reduced.append((rank[1], Polynomial(vs, terms).scale(Fraction(1) / lead_c)))
    reduced.sort(key=itemgetter(0))
    return [p for _, p in reduced]


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
    weighed = [sum(map(mul, m, w)) for m in f.terms]
    best = min(weighed)
    return Polynomial(
        f.vs, {m: c for (m, c), x in zip(f.terms.items(), weighed) if x == best}
    )


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
    J = Ideal(I.vs, [initial_form(g, weights) for g in gb])
    if all(g.is_homogeneous() for g in gb):
        # for a homogeneous reduced basis under an order refining the weights
        # the initial forms are the reduced basis of the initial ideal
        # (Sturmfels, Groebner Bases and Convex Polytopes, Prop. 1.13)
        J._gb_cache[order] = list(J.generators)
    return J


def ideal_equals(
    I: Ideal, J: Ideal, order: TermOrder, budget: GBBudget | None = None
) -> bool:
    """Equality via coincidence of reduced Groebner bases."""
    if I.vs.names != J.vs.names:
        raise ValueError("mixed variable sets")
    gi = I.groebner_basis(order, budget)
    gj = J.groebner_basis(order, budget)
    return gi == gj
