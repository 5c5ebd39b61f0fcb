"""Buchberger's algorithm and the ideal operations built on it: normal forms,
reduced Groebner bases and their certificate, initial forms and initial
ideals under a column-weight vector, and the intersection of two ideals by
eliminating an auxiliary variable it adds and drops itself.

Inside the kernel a term is its packed order key (orders.TermOrder), packed
once on entry and unpacked once on exit: a monomial product is one addition,
a divisibility test one AND.  Every Polynomial entry point is "pack, keyed
core, unpack": `_pack` refuses a polynomial over other variables than the
order's (ValueError), and `_unpack` writes the result over the order's
variables, reading the order's slots with one struct call and writing the
polynomial key with another.  Callers that hold terms keyed already (the
Fulton minors and the orbit pfaffians, keyed from the order's per-variable
`units`) call the keyed cores on dicts and skip both ends: `keyed_basis` is
Buchberger's algorithm, `keyed_certificate` the Groebner certificate, and
`keyed_initial_basis`, the one path to an initial ideal (the degeneration
verifier's and `initial_ideal`'s), is the reduced basis of the initial
ideal of an ideal given by homogeneous generators: Buchberger's algorithm,
then the initial forms of its minimal elements, each cut at its lead with
one int comparison per term, interreduced, so no element of the full basis
is tail-reduced.  Coefficients are ints when integral and
Fractions otherwise, as in Polynomial: every quotient goes through `_div`,
which keeps an int over a ±1 lead, so the ±1 Fulton minors and pfaffians
stay in small ints.  Division
is heap-ordered (Monagan-Pearce, "Sparse polynomial division using a heap",
2011), against a divisor list: one Entry per divisor, in ascending rank
(`_divisors`), which Buchberger grows with the basis.  An entry holds its
term dict itself, the caller's or the remainder a reduction returned, never
a copy and never written to; a divisor's lead cancels by arithmetic when
its whole dict is subtracted.  Every S-polynomial is built one way, from
two entries' terms.  Buchberger keeps each element as it was found and
makes the reduced basis monic on exit (`_reduce_basis`), the one place an
element is scaled.

Everything is deterministic: the pair queue, the one S-pair loop that
Buchberger and the certificate share, is a heap under the normal selection
strategy (lowest lcm degree first, ties by the term order, then by index),
each pair entering it once, when it is created, its lcm keyed from the two
lead keys (`_lcm`); reduced bases are
sorted by leading monomial.  Budgets cap the number of S-pairs processed, the
total degree of intermediate polynomials, and wall time; exceeding one raises
BudgetExceeded carrying the partial statistics, never a silently truncated
answer.  One check (`_check_budget`) decides every cap.  Its deadline is
fixed when an entry point is called, and every loop that can run long reads
it: the pair loop after each pair, each reduction after every _CHECK_TERMS
terms it writes, and the final tail-reduction between elements, as the
pair loop (`_groebner_divisors`) hands its check on to it.
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import insort
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from sporbits.orders import FIELD_BITS, FIELD_MASK, TermOrder, elimination_order, weight_mask, weight_refined_order
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
#: (rank, lead, lead coefficient, terms); rank is (degree, lead), terms the
#: term dict itself, lead included and never written to
Entry = tuple[tuple[int, int], int, Coeff, dict[int, Coeff]]
_OVERFLOW = f"a product overflows the {FIELD_BITS}-bit key fields"
#: terms a reduction writes between two budget checks: one reduction
#: step on a 2n = 8 basis can write 300,000, so heap pops are no measure
_CHECK_TERMS = 20_000


def _pack(f: Polynomial, order: TermOrder) -> dict[int, Coeff]:
    if f.vs.names != order.vs.names:
        raise ValueError("mixed variable sets")
    return {order.key(f.vs.unpack(k)): c for k, c in f._packed.items()}


def _unpack(terms: dict[int, Coeff], order: TermOrder) -> Polynomial:
    # an order key holds each exponent in a field of the polynomial layout, so
    # none passes MAX_EXPONENT and the slots can be written unchecked
    vs = order.vs
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


def _entry(terms: dict[int, Coeff]) -> Entry:
    """The divisor entry of a nonempty term dict: its lead is max(terms), and
    the dict itself, not a copy, is the entry's terms."""
    lead = max(terms)
    return (lead & FIELD_MASK, lead), lead, terms[lead], terms


def _divisors(dicts: Sequence[dict[int, Coeff]]) -> list[Entry]:
    """The entries of the nonempty term dicts in the order division tries
    them: ascending rank, low-degree leads first, ties as given."""
    return sorted((_entry(terms) for terms in dicts if terms), key=itemgetter(0))


def _s_pair(f: Entry, g: Entry, lcm: int, guards: int) -> dict[int, Coeff]:
    """The S-polynomial of two entries with leads dividing `lcm`: each
    entry's terms shifted to the lcm and divided by its lead coefficient,
    g's subtracted from f's.  Both leads land on the lcm with coefficient 1,
    so the lcm key cancels to 0 and is dropped with every other zero."""
    (_, lf, cf, tf), (_, lg, cg, tg) = f, g
    out = {k + lcm - lf: _div(c, cf) for k, c in tf.items()}
    for k, c in tg.items():
        k += lcm - lg
        out[k] = out.get(k, 0) - _div(c, cg)
    if any(k & guards for k in out):
        raise ValueError(_OVERFLOW)
    return {k: c for k, c in out.items() if c}


def _reduce_terms(work: dict[int, Coeff], divisors: list[Entry], guards: int, check: Callable[[], float] | None = None) -> dict[int, Coeff]:
    """Full normal form of a packed term dict, consumed, against a divisor
    list in ascending rank (`_divisors`).  A min-heap of negated keys pops
    the largest term first.  A popped term a divisor's lead divides is
    reduced by subtracting the whole shifted divisor, its lead included: the
    factor times the lead coefficient is the popped coefficient exactly, so
    the popped term cancels by arithmetic; a term no lead divides moves to
    the remainder.  A term that cancels stays in the heap, skipped when
    popped, until dead keys outnumber live ones and the heap is rebuilt.  A
    popped term never comes back, as reductions add only smaller terms, so
    terms leave as a rescan for the largest would take them.  A product that
    sets a guard bit has overflowed its field and raises ValueError.  The
    divisors' term dicts are only read.  `check`, when given, is called once
    the reduction steps have written more than _CHECK_TERMS terms since it
    last was."""
    heap = [-k for k in work]
    heapq.heapify(heap)
    out: dict[int, Coeff] = {}
    written = 0
    while heap:
        k = -heapq.heappop(heap)
        coeff = work.get(k)
        if coeff is None:
            continue
        for _, lead, lead_c, terms in divisors:
            q = k - lead
            if not q & guards:
                factor = _div(coeff, lead_c)
                for k2, c2 in terms.items():
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
                written += len(terms)
                if written > _CHECK_TERMS and check:
                    written = 0
                    check()
                break
        else:
            out[k] = work.pop(k)
    return out


def normal_form(f: Polynomial, G: Sequence[Polynomial], order: TermOrder) -> Polynomial:
    """Remainder of f under multivariate division by G: no monomial of the
    result is divisible by any leading monomial of G, and f - result lies in
    the ideal generated by G."""
    divisors = _divisors([_pack(g, order) for g in G])
    return _unpack(_reduce_terms(_pack(f, order), divisors, order.guards), order)


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """The S-polynomial of two nonzero polynomials, built as every S-pair of
    the kernel is (`_s_pair`), its lcm keyed as `_pairs` keys it (`_lcm`);
    ValueError names a zero argument, or says that the lcm overflows."""
    pf, pg = _pack(f, order), _pack(g, order)
    if not (pf and pg):
        raise ValueError(f"s_polynomial: {'g' if pf else 'f'} is zero")
    ef, eg = _entry(pf), _entry(pg)
    lf, lg = order.exponents(ef[1]), order.exponents(eg[1])
    common = sum(1 << v for v, (x, y) in enumerate(zip(lf, lg)) if x and y)
    lcm = _lcm(ef[1], eg[1], lf, lg, common, order.units)
    if lcm & order.guards:
        raise ValueError(_OVERFLOW)
    return _unpack(_s_pair(ef, eg, lcm, order.guards), order)


def _check_budget(budget: GBBudget, stats: dict) -> Callable[[], float]:
    """The check of `budget` on `stats`, its deadline the time cap from now.
    Each call raises BudgetExceeded, carrying stats as they then are, once
    their pairs (where they count them) pass the pair cap, their degree
    (where they keep one) the degree cap, or the clock the deadline;
    otherwise it returns the seconds left, for a budget handed on."""
    deadline = time.monotonic() + budget.max_seconds

    def check() -> float:
        if stats.get("pairs_processed", 0) > budget.max_pairs:
            raise BudgetExceeded("pair cap", stats)
        if stats.get("max_degree", 0) > budget.max_degree:
            raise BudgetExceeded("degree cap", stats)
        left = deadline - time.monotonic()
        if left < 0:
            raise BudgetExceeded("time cap", stats)
        return left

    return check


def _pairs(basis: list[Entry], order: TermOrder, stats: dict, check: Callable[[], float]) -> Iterator[tuple[Entry, Entry, int]]:
    """The S-pairs of `basis` that neither of Buchberger's criteria skips
    (EUROSAM 1979; Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, Ch. 2
    Sec. 10), as (f, g, lcm of their leads).  A pair (i, j) enters a heap
    once, when j arrives; the caller may append to `basis` between pairs.
    Its lcm is keyed then from the two lead keys, as the key is linear: their
    sum for coprime leads, less the key of their gcd (`_lcm`) otherwise, an
    lcm that sets a guard bit raising ValueError.  Pairs leave lowest lcm
    degree first, ties by the term order, then by index, each counted in
    stats["pairs_processed"] and followed by `check`.  Product: coprime
    leads, whose lcm is their product.  Chain: a third lead k divides the
    lcm, and the pairs of k with i and with j were already taken; bit k of
    done[i] is set once the pair of i and k is, so the candidates k are the
    bits of done[i] & done[j]."""
    guards, units = order.guards, order.units
    bits = [1 << v for v in range(len(units))]
    leads: list[Monomial] = []
    supports: list[int] = []
    heap: list[tuple[int, int, int, int]] = []
    done: list[int] = []
    while True:
        for j in range(len(leads), len(basis)):
            key = basis[j][1]
            lead = order.exponents(key)
            support = sum(compress(bits, lead))
            leads.append(lead)
            supports.append(support)
            done.append(0)
            for i in range(j):
                common = supports[i] & support
                if common:
                    lcm = _lcm(basis[i][1], key, leads[i], lead, common, units)
                    if lcm & guards:
                        raise ValueError(_OVERFLOW)
                else:
                    lcm = basis[i][1] + key
                heapq.heappush(heap, (lcm & FIELD_MASK, lcm, i, j))
        if not heap:
            return
        _, lcm, i, j = heapq.heappop(heap)
        done[i] |= 1 << j
        done[j] |= 1 << i
        stats["pairs_processed"] += 1
        check()
        if not supports[i] & supports[j] or any(
            not (lcm - basis[k][1]) & guards for k in _bits(done[i] & done[j])
        ):
            continue
        yield basis[i], basis[j], lcm


def _lcm(a: int, b: int, lead_a: Monomial, lead_b: Monomial, common: int, units: Sequence[int]) -> int:
    """The key of the lcm of two monomials keyed a and b, from their keys,
    their exponents and the bitmask of the variables both contain: a + b
    less the key of their gcd, summed over those variables only.  An
    overflowing field is left to set its guard bit."""
    for v in _bits(common):
        a -= min(lead_a[v], lead_b[v]) * units[v]
    return a + b


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of a non-negative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_groebner_basis(G: Sequence[Polynomial], order: TermOrder, budget: GBBudget | None = None) -> bool:
    """Certificate that G is a Groebner basis (`keyed_certificate`), G keyed
    under `order` on entry."""
    return keyed_certificate([_pack(g, order) for g in G], order, budget)


def keyed_certificate(G: Sequence[dict[int, Coeff]], order: TermOrder, budget: GBBudget | None = None) -> bool:
    """Certificate that the term dicts G, keyed under `order`, are a Groebner
    basis: every S-pair of their divisors that `_pairs` yields reduces to
    zero against them.  The pairs index the divisor order (ascending degree,
    then lead), not G's list order, and are taken as Buchberger takes them,
    under the same pair and time caps (BudgetExceeded), the time cap counted
    from this call."""
    stats = {"pairs_processed": 0}
    check = _check_budget(budget or GBBudget(), stats)
    entries = _divisors(G)
    stats["basis_size"] = len(entries)
    return not any(
        _reduce_terms(_s_pair(f, g, lcm, order.guards), entries, order.guards, check)
        for f, g, lcm in _pairs(entries, order, stats, check)
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
    return [_unpack(terms, order) for terms in keyed_basis([_pack(g, order) for g in generators], order, budget)]


def keyed_basis(generators: Sequence[dict[int, Coeff]], order: TermOrder, budget: GBBudget | None = None) -> list[dict[int, Coeff]]:
    """The reduced Groebner basis of term dicts keyed under `order`, as new
    monic term dicts sorted by lead: Buchberger's algorithm
    (`_groebner_divisors`), then the final tail-reduction of its minimal
    elements (`_reduce_basis`)."""
    divisors, check = _groebner_divisors(generators, order, budget)
    return _reduce_basis(_minimal_entries(divisors, order.guards), order.guards, check)


def keyed_initial_basis(
    generators: Sequence[dict[int, Coeff]], order: TermOrder, weights: Sequence[int], budget: GBBudget | None = None
) -> list[dict[int, Coeff]]:
    """The reduced Groebner basis of the initial ideal in_w(I), I generated
    by degree-homogeneous term dicts keyed under `order`, a weight-refined
    order of `weights`, as new monic term dicts sorted by lead: the minimal
    elements of Buchberger's basis are cut to their initial forms before
    the final tail-reduction, which so runs on the initial forms alone.
    Every element is homogeneous, so its initial form, its terms of least
    w-weight, is the terms whose degree and max(w) - w fields match its
    lead's: the keys at least the lead under `weight_mask`.  The initial
    forms of a Groebner basis of a homogeneous I under an order refining w
    are one of in_w(I) (Sturmfels, Groebner Bases and Convex Polytopes,
    Prop. 1.13), each keeps its element's lead, so those of a minimal basis
    are minimal, and their interreduction is the unique reduced basis.
    ValueError, before any pair, names an inhomogeneous generator, or an
    order that does not refine the weights; budgets as for keyed_basis."""
    for terms in generators:
        if terms and max(terms) & FIELD_MASK != min(terms) & FIELD_MASK:
            raise ValueError("an initial ideal needs homogeneous generators")
    mask = weight_mask(order, weights)
    divisors, check = _groebner_divisors(generators, order, budget)
    forms = [
        (rank, lead, lead_c, {k: c for k, c in terms.items() if k >= lead & mask})
        for rank, lead, lead_c, terms in _minimal_entries(divisors, order.guards)
    ]
    return _reduce_basis(forms, order.guards, check)


def _groebner_divisors(
    generators: Sequence[dict[int, Coeff]], order: TermOrder, budget: GBBudget | None
) -> tuple[list[Entry], Callable[[], float]]:
    """A Groebner basis of term dicts keyed under `order`, as divisor
    entries in ascending rank, and the budget check it ran under, for the
    final reduction to go on with.  Each element, a generator's dict or a
    nonzero remainder, is an entry as it is, unscaled and never written.

    Normal selection strategy plus both classical pair-elimination criteria
    (coprime leading terms; the chain criterion), as `_pairs` applies them;
    each nonzero remainder joins the basis, after a second budget check.  The
    time cap counts from this call and is read after each pair and within
    each reduction (see `_check_budget`); a caller that spent time first
    hands on what is left.
    """
    stats = {"pairs_processed": 0}
    check = _check_budget(budget or GBBudget(), stats)
    guards = order.guards
    # the elements in the order they were found, and as divisors
    basis = [_entry(terms) for terms in generators if terms]
    divisors = sorted(basis, key=itemgetter(0))
    stats.update(basis_size=len(basis), max_degree=max((k & FIELD_MASK for *_, terms in basis for k in terms), default=0))

    for f, g, lcm in _pairs(basis, order, stats, check):
        h = _reduce_terms(_s_pair(f, g, lcm, guards), divisors, guards, check)
        if h:
            stats["max_degree"] = max(stats["max_degree"], max(k & FIELD_MASK for k in h))
            check()
            basis.append(_entry(h))
            insort(divisors, basis[-1], key=itemgetter(0))
            stats["basis_size"] = len(basis)

    return divisors, check


def _minimal_entries(entries: list[Entry], guards: int) -> list[Entry]:
    """The entries, in ascending rank, whose lead no earlier lead divides:
    a minimal basis, when the entries are a Groebner basis."""
    minimal: list[Entry] = []
    for entry in entries:
        if all((entry[1] - other[1]) & guards for other in minimal):
            minimal.append(entry)
    return minimal


def _reduce_basis(minimal: list[Entry], guards: int, check: Callable[[], float]) -> list[dict[int, Coeff]]:
    """Fully tail-reduce a minimal Groebner basis given as divisor entries in
    ascending rank (`_minimal_entries`), calling `check` between elements
    and within each reduction; the result as monic term dicts sorted by
    lead.  Each element is reduced in a copy of its terms, so no entry's
    dict is written, and divided by its lead coefficient once, on exit: the
    only place the kernel scales an element."""
    # no other lead divides a minimal lead, so each element keeps its lead
    reduced = []
    for idx, (_, lead, lead_c, terms) in enumerate(minimal):
        if idx:
            check()
        rest = _reduce_terms(dict(terms), minimal[:idx] + minimal[idx + 1:], guards, check)
        reduced.append((lead, {k: _div(c, lead_c) for k, c in rest.items()}))
    return [terms for _, terms in sorted(reduced)]


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


def initial_ideal(
    I: Ideal,
    weights: Sequence[int],
    tie_break: TermOrder | None = None,
    budget: GBBudget | None = None,
) -> Ideal:
    """Initial ideal in_w(I) of an ideal given by homogeneous generators:
    its reduced basis under the weight-refined order (`keyed_initial_basis`),
    monic and sorted by lead, so callers may take the generators as that
    basis.  ValueError names an inhomogeneous generator, even of an ideal
    that is homogeneous, as <x, x + y^2> is: the order compares degree
    first, so it refines w on homogeneous polynomials only."""
    if I.is_zero():
        return Ideal(I.vs, [])
    order = weight_refined_order(I.vs, weights, tie_break)
    basis = keyed_initial_basis([_pack(g, order) for g in I.generators], order, weights, budget)
    return Ideal(I.vs, [_unpack(terms, order) for terms in basis])
