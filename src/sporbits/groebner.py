"""Buchberger's algorithm and the ideal operations built on it: normal forms,
reduced Groebner bases and their certificate, initial forms and initial
ideals under a column-weight vector, and the intersection of two ideals by
eliminating an auxiliary variable it adds and drops itself.

Inside the kernel a term is its packed order key (orders.TermOrder), packed
once on entry and unpacked once on exit: a monomial product is one addition,
a divisibility test one AND.  Coefficients are ints when integral and
Fractions otherwise, as in Polynomial: every quotient goes through `_div`,
which keeps an int over a ±1 lead, so the ±1 Fulton minors and the monic
bases Buchberger builds from integer input stay in small ints.  Division is
heap-ordered (Monagan-Pearce, "Sparse polynomial division using a heap",
2011), against a divisor set prepared once per basis (`Reducers`) that
Buchberger grows with the basis.  Every S-polynomial is built one way, from
two prepared divisors' tails.

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
import math
import time
from bisect import insort
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import itemgetter, mul
from typing import Sequence

from sporbits.orders import FIELD_BITS, FIELD_MASK, TermOrder, elimination_order, weight_refined_order
from sporbits.polynomials import Monomial, Polynomial, VariableSet


@dataclass
class GBBudget:
    """Caps for one Groebner computation, each finite and at least 0 (nan
    would lift a cap, a negative one stop at once); ValueError otherwise,
    naming the cap by its command-line flag."""

    max_pairs: int = 100_000
    max_degree: int = 60
    max_seconds: float = 600.0

    def __post_init__(self):
        for cap in fields(self):
            value = getattr(self, cap.name)
            if not 0 <= value < math.inf:
                raise ValueError(f"--{cap.name.replace('_', '-')} must be finite and at least 0, not {value}")


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
    """Generators over a variable set, zero generators dropped."""

    vs: VariableSet
    generators: Sequence[Polynomial]

    def __post_init__(self):
        self.generators = tuple(g for g in self.generators if not g.is_zero())

    def is_zero(self) -> bool:
        return not self.generators

    def groebner_basis(self, order: TermOrder, budget: GBBudget | None = None) -> list[Polynomial]:
        """The reduced Groebner basis of the generators under `order`."""
        return buchberger(list(self.generators), order, budget)

    def to_json(self) -> dict:
        return {
            "variables": list(self.vs.names),
            "generators": [str(g) for g in self.generators],
        }


# ---------------------------------------------------------------------------
# the packed kernel: every term is its key under the term order

#: an exact coefficient: an int when integral, else a Fraction
Coeff = int | Fraction
#: (rank, lead, lead coefficient, tail of (key, coefficient)); rank is (degree, lead),
#: every coefficient a Coeff, so ±1 minors stay ints
Entry = tuple[tuple[int, int], int, Coeff, list[tuple[int, Coeff]]]
_OVERFLOW = f"a product overflows the {FIELD_BITS}-bit key fields"


def _pack(f: Polynomial, order: TermOrder) -> dict[int, Coeff]:
    return {order.key(f.vs.unpack(k)): c for k, c in f._packed.items()}


def _unpack(terms: dict[int, Coeff], vs: VariableSet, order: TermOrder) -> Polynomial:
    return Polynomial._of(vs, {vs.pack(order.exponents(k)): c for k, c in terms.items()})


def _div(a: Coeff, b: Coeff) -> Coeff:
    """The exact quotient a / b: a or -a when b is ±1, an int when
    integral, else a Fraction."""
    if b == 1:
        return a
    if b == -1:
        return -a
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


class Reducers:
    """A divisor set prepared for division under one term order: Entries
    tried in ascending rank, low-degree leads first, ties in the order added.
    `add` keeps that order, so a set grown one divisor at a time equals one
    prepared from the whole list at once."""

    def __init__(self, G: Sequence[Polynomial], order: TermOrder):
        self.order = order
        self.entries: list[Entry] = []
        for g in G:
            self.add(g)

    def add(self, g: Polynomial | dict[int, Coeff]) -> Entry | None:
        """Add a polynomial or packed term dict; returns its entry, or None."""
        terms = g if isinstance(g, dict) else _pack(g, self.order)
        if not terms:
            return None
        lead = max(terms)
        entry = ((lead & FIELD_MASK, lead), lead, terms[lead], [(k, c) for k, c in terms.items() if k != lead])
        insort(self.entries, entry, key=itemgetter(0))
        return entry


def _prepared(G: Sequence[Polynomial] | Reducers, order: TermOrder) -> Reducers:
    """G as a divisor set prepared under `order`: built here from a list of
    polynomials, or passed through when given prepared, which must then be
    under `order` (ValueError otherwise)."""
    if not isinstance(G, Reducers):
        return Reducers(G, order)
    if G.order != order:
        raise ValueError("reducers prepared under another term order")
    return G


def _s_pair(f: Entry, g: Entry, lcm: int, guards: int) -> dict[int, Coeff]:
    """The S-polynomial of two entries with leads dividing `lcm`: each tail
    shifted to the lcm and divided by its lead coefficient, g's subtracted
    from f's.  The leads cancel by construction."""
    (_, lf, cf, tf), (_, lg, cg, tg) = f, g
    out = {k + lcm - lf: _div(c, cf) for k, c in tf}
    for k, c in tg:
        k += lcm - lg
        out[k] = out.get(k, 0) - _div(c, cg)
    if any(k & guards for k in out):
        raise ValueError(_OVERFLOW)
    return {k: c for k, c in out.items() if c}


def _reduce_terms(work: dict[int, Coeff], reducers: list[Entry], guards: int) -> dict[int, Coeff]:
    """Full normal form of a packed term dict, consumed, against prepared
    reducer entries.  A min-heap of negated keys pops the largest term first.
    A term that cancels stays in the heap, skipped when popped, until dead
    keys outnumber live ones and the heap is rebuilt.  A popped term never
    comes back, as reductions add only smaller terms, so terms leave as a
    rescan for the largest would take them.  A product that sets a guard bit
    has overflowed its field and raises ValueError."""
    heap = [-k for k in work]
    heapq.heapify(heap)
    out: dict[int, Coeff] = {}
    while heap:
        k = -heapq.heappop(heap)
        coeff = work.pop(k, None)
        if coeff is None:
            continue
        for _, lead, lead_c, tail in reducers:
            q = k - lead
            if not q & guards:
                factor = _div(coeff, lead_c)
                for k2, c2 in tail:
                    k2 += q
                    c = work.get(k2)
                    if c is None:
                        if k2 & guards:
                            raise ValueError(_OVERFLOW)
                        work[k2] = -factor * c2
                        heapq.heappush(heap, -k2)
                    else:
                        c -= factor * c2
                        if c:
                            work[k2] = c
                        else:
                            del work[k2]
                if len(heap) > 2 * len(work):  # mostly dead keys
                    heap = [-k for k in work]
                    heapq.heapify(heap)
                break
        else:
            out[k] = coeff
    return out


def normal_form(f: Polynomial, G: Sequence[Polynomial] | Reducers, order: TermOrder) -> Polynomial:
    """Remainder of f under multivariate division by G: no monomial of the
    result is divisible by any leading monomial of G, and f - result lies in
    the ideal generated by G.  G may be given prepared (see `_prepared`)."""
    return _unpack(_reduce_terms(_pack(f, order), _prepared(G, order).entries, order.guards), f.vs, order)


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """The S-polynomial of two nonzero polynomials, built as every S-pair of
    the kernel is (`_s_pair`)."""
    ef, eg = Reducers((), order).add(f), Reducers((), order).add(g)
    lcm = order.key(tuple(map(max, order.exponents(ef[1]), order.exponents(eg[1]))))
    return _unpack(_s_pair(ef, eg, lcm, order.guards), f.vs, order)


def is_groebner_basis(G: Sequence[Polynomial] | Reducers, order: TermOrder, budget: GBBudget | None = None) -> bool:
    """Certificate that G is a Groebner basis, G given as polynomials or
    prepared (see `_prepared`): each pair (i, j) of its divisors, taken in
    combinations order over the divisor order (ascending degree, then lead),
    is skipped by a criterion of Buchberger (EUROSAM 1979; Cox-Little-O'Shea,
    Ideals, Varieties, and Algorithms, Ch. 2 Sec. 10) or its S-pair reduces to
    zero against G.  Product: coprime leads.  Chain: a lead k < i divides
    their lcm, so (k, i) and (k, j) came first.  The pair and time caps count
    the pairs examined, skipped or not (BudgetExceeded)."""
    budget = budget or GBBudget()
    start = time.monotonic()
    guards = order.guards
    entries = _prepared(G, order).entries
    leads = [order.exponents(e[1]) for e in entries]
    supports = [sum(1 << v for v, x in enumerate(m) if x) for m in leads]
    for done, (i, j) in enumerate(itertools.combinations(range(len(entries)), 2)):
        if done >= budget.max_pairs or time.monotonic() - start > budget.max_seconds:
            reason = "pair cap" if done >= budget.max_pairs else "time cap"
            raise BudgetExceeded(reason, {"pairs_processed": done, "basis_size": len(entries)})
        if not supports[i] & supports[j]:
            continue
        lcm = order.key(tuple(map(max, leads[i], leads[j])))
        if any(not (lcm - entries[k][1]) & guards for k in range(i)):
            continue
        if _reduce_terms(_s_pair(entries[i], entries[j], lcm, guards), entries, guards):
            return False
    return True


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
    guards = order.guards

    G = [g for g in generators if not g.is_zero()]
    reducers = Reducers((), order)
    # the monic elements in the order they were found, and their leads
    basis: list[Entry] = []
    leads: list[Monomial] = []

    def add(terms: dict[int, Coeff]) -> None:
        lead_c = terms[max(terms)]
        basis.append(reducers.add({k: _div(c, lead_c) for k, c in terms.items()}))
        leads.append(order.exponents(basis[-1][1]))

    packed = [_pack(g, order) for g in G]
    for terms in packed:
        add(terms)

    # (lcm degree, lcm, i, j): pushed once, when the pair is created
    pairs: list[tuple[int, int, int, int]] = []

    def push(i: int, j: int) -> None:
        lcm = order.key(tuple(map(max, leads[i], leads[j])))
        heapq.heappush(pairs, (lcm & FIELD_MASK, lcm, i, j))

    for i, j in itertools.combinations(range(len(basis)), 2):
        push(i, j)
    done: set[tuple[int, int]] = set()
    stats = {"pairs_processed": 0, "basis_size": len(G), "max_degree": max((k & FIELD_MASK for terms in packed for k in terms), default=0)}

    def check_budget():
        if stats["pairs_processed"] > budget.max_pairs:
            raise BudgetExceeded("pair cap", stats)
        if stats["max_degree"] > budget.max_degree:
            raise BudgetExceeded("degree cap", stats)
        if time.monotonic() - start > budget.max_seconds:
            raise BudgetExceeded("time cap", stats)

    def chain(i: int, j: int, lcm: int) -> bool:
        return any(
            k not in (i, j) and not (lcm - basis[k][1]) & guards
            and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
            for k in range(len(basis))
        )

    while pairs:
        _, lcm, i, j = heapq.heappop(pairs)
        done.add((i, j))
        stats["pairs_processed"] += 1
        check_budget()
        # coprime leads: the lcm is their product
        if lcm == basis[i][1] + basis[j][1] or chain(i, j, lcm):
            continue
        h = _reduce_terms(_s_pair(basis[i], basis[j], lcm, guards), reducers.entries, guards)
        if not h:
            continue
        stats["max_degree"] = max(stats["max_degree"], max(k & FIELD_MASK for k in h))
        check_budget()
        add(h)
        new = len(basis) - 1
        stats["basis_size"] = len(basis)
        for k in range(new):
            push(k, new)

    return _reduce_basis(reducers, G[0].vs) if G else []


def _reduce_basis(basis: Reducers, vs: VariableSet) -> list[Polynomial]:
    """Minimalize then fully tail-reduce a prepared monic Groebner basis."""
    guards = basis.order.guards
    # minimal: drop any element whose lead is divisible by an earlier lead
    minimal: list[Entry] = []
    for entry in basis.entries:
        if all((entry[1] - other[1]) & guards for other in minimal):
            minimal.append(entry)
    # no other lead divides a minimal lead, so each element keeps its lead
    reduced = sorted(
        (lead, _reduce_terms({lead: lead_c, **dict(tail)}, minimal[:idx] + minimal[idx + 1:], guards))
        for idx, (_, lead, lead_c, tail) in enumerate(minimal)
    )
    return [_unpack(terms, vs, basis.order) for _, terms in reduced]


def ideal_intersection(I: Ideal, J: Ideal, inner: TermOrder, budget: GBBudget | None = None) -> Ideal:
    """I cap J: the elements free of t in a Groebner basis of t*I + (1-t)*J
    under the elimination order over `inner`, t a variable appended here: the
    first of t, t_, t__, ... that is not among I's variables."""
    if I.vs.names != J.vs.names:
        raise ValueError("mixed variable sets")
    if I.is_zero() or J.is_zero():
        return Ideal(I.vs, [])
    vs = I.vs
    aux = next(a for a in ("t" + "_" * k for k in range(len(vs) + 1)) if a not in vs.index)
    ext = VariableSet(vs.names + (aux,), matrix_size=vs.matrix_size)
    t = Polynomial.variable(ext, aux)

    def lift(factor: Polynomial, f: Polynomial) -> Polynomial:
        return factor * Polynomial(ext, {m + (0,): c for m, c in f.terms.items()})

    gens = [lift(t, f) for f in I.generators] + [lift(1 - t, g) for g in J.generators]
    gb = buchberger(gens, elimination_order(ext, inner), budget)
    kept = [p for p in gb if not any(m[-1] for m in p.terms)]
    return Ideal(vs, [Polynomial(vs, {m[:-1]: c for m, c in p.terms.items()}) for p in kept])


def initial_form(f: Polynomial, weights: Sequence[int]) -> Polynomial:
    """The terms of minimal total weight (those surviving t -> 0)."""
    w = [int(x) for x in weights]
    if any(x < 0 for x in w):
        raise ValueError("negative weights rejected")
    if f.is_zero():
        return f
    weighed = [sum(map(mul, f.vs.unpack(k), w)) for k in f._packed]
    best = min(weighed)
    return Polynomial._of(f.vs, {k: c for (k, c), x in zip(f._packed.items(), weighed) if x == best})


def initial_ideal(
    I: Ideal,
    weights: Sequence[int],
    tie_break: TermOrder | None = None,
    budget: GBBudget | None = None,
) -> Ideal:
    """Initial ideal under a weight vector: the initial forms of I's reduced
    basis under the weight-refined order, in the basis's order.

    When I is homogeneous, so is that basis, and as the order refines the
    weights its initial forms are the reduced basis of the initial ideal
    under the same order (Sturmfels, Groebner Bases and Convex Polytopes,
    Prop. 1.13): callers may take the generators as that basis."""
    if I.is_zero():
        return Ideal(I.vs, [])
    order = weight_refined_order(I.vs, weights, tie_break)
    return Ideal(I.vs, [initial_form(g, weights) for g in I.groebner_basis(order, budget)])

