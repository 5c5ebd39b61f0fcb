"""Buchberger's algorithm and the ideal operations built on it: normal forms,
reduced Groebner bases and their certificate, initial forms and initial
ideals under a column-weight vector, and the intersection of two ideals by
eliminating an auxiliary variable it adds and drops itself.

Inside the kernel a term is its packed order key (orders.TermOrder), packed
once on entry and unpacked once on exit: a monomial product is one addition,
a divisibility test one AND.  On exit the order's slots are read with one
struct call and the polynomial key written with another.  Callers that hold
terms keyed already (the Fulton minors and the orbit pfaffians, keyed from
the order's per-variable `units`) pass them in as dicts and skip both ends:
`keyed_basis` is Buchberger's algorithm on key dicts, which `buchberger`
wraps in one packing and one unpacking, and `keyed_initial_forms` reads
each term's weight off its key under a weight-refined order, for
`initial_ideal` and the degeneration verifier alike.  Coefficients
are ints when integral and Fractions otherwise, as in Polynomial: every
quotient goes through `_div`, which keeps an int over a ±1 lead, so the ±1
Fulton minors and the monic bases Buchberger builds from integer input stay
in small ints.  Division is
heap-ordered (Monagan-Pearce, "Sparse polynomial division using a heap",
2011), against a divisor set prepared once per basis (`Reducers`) that
Buchberger grows with the basis.  Every S-polynomial is built one way, from
two prepared divisors' tails.

Everything is deterministic: the pair queue, the one S-pair loop that
Buchberger and the certificate share, is a heap under the normal selection
strategy (lowest lcm degree first, ties by the term order, then by index),
each pair entering it once, when it is created; reduced bases are
sorted by leading monomial.  Budgets cap the number of S-pairs processed, the
total degree of intermediate polynomials, and wall time; exceeding one raises
BudgetExceeded carrying the partial statistics, never a silently truncated
answer.
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import insort
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Sequence

from sporbits.orders import FIELD_BITS, FIELD_MASK, TermOrder, elimination_order, key_weigher, weight_refined_order
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
    # an order key holds each exponent in a field of the polynomial layout, so
    # none passes MAX_EXPONENT and the slots can be written unchecked
    pack, exponents = vs.packer.pack, order.exponents
    return Polynomial._of(vs, {int.from_bytes(pack(*exponents(k)), "big"): c for k, c in terms.items()})


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

    def __init__(self, G: Sequence[Polynomial | dict[int, Coeff]], order: TermOrder):
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


def normal_form(
    f: Polynomial | dict[int, Coeff], G: Sequence[Polynomial] | Reducers, order: TermOrder
) -> Polynomial:
    """Remainder of f under multivariate division by G: no monomial of the
    result is divisible by any leading monomial of G, and f - result lies in
    the ideal generated by G.  f may be given as a packed term dict under
    `order`, left as it is (the result is then over order.vs), and G
    prepared (see `_prepared`)."""
    vs, terms = (order.vs, dict(f)) if isinstance(f, dict) else (f.vs, _pack(f, order))
    return _unpack(_reduce_terms(terms, _prepared(G, order).entries, order.guards), vs, order)


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """The S-polynomial of two nonzero polynomials, built as every S-pair of
    the kernel is (`_s_pair`)."""
    ef, eg = Reducers((), order).add(f), Reducers((), order).add(g)
    lcm = order.key(tuple(map(max, order.exponents(ef[1]), order.exponents(eg[1]))))
    return _unpack(_s_pair(ef, eg, lcm, order.guards), f.vs, order)


def _check_budget(budget: GBBudget, stats: dict, start: float) -> None:
    """Raise BudgetExceeded, carrying `stats`, once its pairs pass the pair
    cap, its degree (where it keeps one) the degree cap, or the time since
    `start` the time cap."""
    if stats["pairs_processed"] > budget.max_pairs:
        raise BudgetExceeded("pair cap", stats)
    if stats.get("max_degree", 0) > budget.max_degree:
        raise BudgetExceeded("degree cap", stats)
    if time.monotonic() - start > budget.max_seconds:
        raise BudgetExceeded("time cap", stats)


def _pairs(
    basis: list[Entry], order: TermOrder, budget: GBBudget, stats: dict, start: float
) -> Iterator[tuple[Entry, Entry, int]]:
    """The S-pairs of `basis` that neither of Buchberger's criteria skips
    (EUROSAM 1979; Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, Ch. 2
    Sec. 10), as (f, g, lcm of their leads).  A pair (i, j) enters a heap
    once, when j arrives; the caller may append to `basis` between pairs.
    Pairs leave lowest lcm degree first, ties by the term order, then by
    index, each counted in stats["pairs_processed"] and followed by a budget
    check.  Product: coprime leads, whose lcm is their product, the sum of
    their keys.  Chain: a third lead k divides the lcm, and the pairs of k
    with i and with j were already taken; bit k of done[i] is set once the
    pair of i and k is, so the candidates k are the bits of done[i] & done[j]."""
    guards = order.guards
    leads: list[Monomial] = []
    supports: list[int] = []
    heap: list[tuple[int, int, int, int]] = []
    done: list[int] = []
    while True:
        for j in range(len(leads), len(basis)):
            leads.append(order.exponents(basis[j][1]))
            supports.append(sum(1 << v for v, x in enumerate(leads[j]) if x))
            done.append(0)
            for i in range(j):
                if supports[i] & supports[j]:
                    lcm = order.key(tuple(map(max, leads[i], leads[j])))
                else:
                    lcm = basis[i][1] + basis[j][1]
                heapq.heappush(heap, (lcm & FIELD_MASK, lcm, i, j))
        if not heap:
            return
        _, lcm, i, j = heapq.heappop(heap)
        done[i] |= 1 << j
        done[j] |= 1 << i
        stats["pairs_processed"] += 1
        _check_budget(budget, stats, start)
        if not supports[i] & supports[j] or any(
            not (lcm - basis[k][1]) & guards for k in _bits(done[i] & done[j])
        ):
            continue
        yield basis[i], basis[j], lcm


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of a non-negative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_groebner_basis(G: Sequence[Polynomial] | Reducers, order: TermOrder, budget: GBBudget | None = None) -> bool:
    """Certificate that G is a Groebner basis, G given as polynomials or
    prepared (see `_prepared`): every S-pair of its divisors that `_pairs`
    yields reduces to zero against them.  The pairs index the divisor order
    (ascending degree, then lead), not G's list order, and are taken as
    Buchberger takes them, under the same pair and time caps
    (BudgetExceeded)."""
    budget = budget or GBBudget()
    start = time.monotonic()
    entries = _prepared(G, order).entries
    stats = {"pairs_processed": 0, "basis_size": len(entries)}
    return not any(
        _reduce_terms(_s_pair(f, g, lcm, order.guards), entries, order.guards)
        for f, g, lcm in _pairs(entries, order, budget, stats, start)
    )


def buchberger(
    generators: Sequence[Polynomial],
    order: TermOrder,
    budget: GBBudget | None = None,
) -> list[Polynomial]:
    """Reduced Groebner basis by Buchberger's algorithm (`keyed_basis`), the
    generators keyed under `order` on entry and the basis unpacked on exit.
    The result is monic, auto-reduced, and sorted by leading monomial, so it
    is unique for the ideal and order."""
    G = [g for g in generators if not g.is_zero()]
    if not G:
        return []
    return [_unpack(terms, G[0].vs, order) for terms in keyed_basis([_pack(g, order) for g in G], order, budget)]


def keyed_basis(
    generators: Sequence[dict[int, Coeff]],
    order: TermOrder,
    budget: GBBudget | None = None,
    start: float | None = None,
) -> list[dict[int, Coeff]]:
    """The reduced Groebner basis of term dicts keyed under `order`, as term
    dicts sorted by lead; the generators are left as they are.

    Normal selection strategy plus both classical pair-elimination criteria
    (coprime leading terms; the chain criterion), as `_pairs` applies them;
    each nonzero remainder joins the basis, after a second budget check.  The
    time cap counts from `start` (time.monotonic(); default: now), so a
    caller may charge its own work before the pairs to the same cap.
    """
    budget = budget or GBBudget()
    start = time.monotonic() if start is None else start
    guards = order.guards
    reducers = Reducers((), order)
    # the monic elements in the order they were found
    basis: list[Entry] = []

    def add(terms: dict[int, Coeff]) -> None:
        lead_c = terms[max(terms)]
        basis.append(reducers.add({k: _div(c, lead_c) for k, c in terms.items()}))

    packed = [terms for terms in generators if terms]
    for terms in packed:
        add(terms)
    stats = {"pairs_processed": 0, "basis_size": len(packed), "max_degree": max((k & FIELD_MASK for terms in packed for k in terms), default=0)}

    for f, g, lcm in _pairs(basis, order, budget, stats, start):
        h = _reduce_terms(_s_pair(f, g, lcm, guards), reducers.entries, guards)
        if h:
            stats["max_degree"] = max(stats["max_degree"], max(k & FIELD_MASK for k in h))
            _check_budget(budget, stats, start)
            add(h)
            stats["basis_size"] = len(basis)

    return _reduce_basis(reducers)


def _reduce_basis(basis: Reducers) -> list[dict[int, Coeff]]:
    """Minimalize then fully tail-reduce a prepared monic Groebner basis; the
    result as term dicts sorted by lead."""
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
    return [terms for _, terms in reduced]


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


def keyed_initial_forms(
    basis: Sequence[dict[int, Coeff]], order: TermOrder, weights: Sequence[int]
) -> list[dict[int, Coeff]]:
    """The initial form of each nonempty term dict keyed under `order`, a
    weight-refined order of `weights`: its terms of minimal total weight
    (those surviving t -> 0), each weighed off its key (`key_weigher`)."""
    weigh = key_weigher(order, weights)
    forms = []
    for terms in basis:
        weighed = {k: weigh(k) for k in terms}
        best = min(weighed.values())
        forms.append({k: c for k, c in terms.items() if weighed[k] == best})
    return forms


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
    basis = keyed_basis([_pack(g, order) for g in I.generators], order, budget)
    return Ideal(I.vs, [_unpack(terms, I.vs, order) for terms in keyed_initial_forms(basis, order, weights)])
