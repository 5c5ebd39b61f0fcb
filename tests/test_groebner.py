import dataclasses
import itertools
import random
from bisect import insort
from fractions import Fraction
from operator import itemgetter, mul
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sporbits.groebner import (
    BudgetExceeded,
    GBBudget,
    Ideal,
    _OVERFLOW,
    _div,
    _divisors,
    _entry,
    _lcm,
    _pack,
    _reduce_terms,
    _s_pair,
    _unpack,
    buchberger,
    ideal_intersection,
    initial_ideal,
    is_groebner_basis,
    keyed_basis,
    keyed_certificate,
    keyed_initial_basis,
    normal_form,
    s_polynomial,
)
from sporbits.involutions import FpfInvolution
from sporbits.permutations import Permutation
from sporbits.orders import (
    FIELD_BITS,
    FIELD_MASK,
    TermOrder,
    antidiagonal_order,
    antidiagonal_ranking,
    elimination_order,
    grevlex_order,
    lex_order,
    tie_key_mask,
    weight_mask,
    weight_refined_order,
)
from sporbits.polynomials import Polynomial, VariableSet, parse_polynomial
from sporbits.symplectic import column_weights, fulton_minors, orbit_ideal


@pytest.fixture
def xy():
    return VariableSet.named("x", "y")


def poly(vs, text):
    return parse_polynomial(vs, text)


class TestOrders:
    def test_lex_lead(self, xy):
        p = poly(xy, "x*y + y^3")
        assert max(p.terms, key=lex_order(xy).key) == (1, 1)

    def test_grevlex_lead(self, xy):
        p = poly(xy, "x*y + y^3")
        assert max(p.terms, key=grevlex_order(xy).key) == (0, 3)

    def test_grevlex_classic_tie(self):
        vs = VariableSet.named("x", "y", "z")
        # x*z vs y^2: same degree, grevlex prefers the one avoiding z
        p = poly(vs, "x*z + y^2")
        assert max(p.terms, key=grevlex_order(vs).key) == (0, 2, 0)

    def test_one_is_minimal(self, xy):
        for order in (lex_order(xy), grevlex_order(xy)):
            one = (0, 0)
            for mono in [(1, 0), (0, 1), (2, 3)]:
                assert order.key(mono) > order.key(one)

    def test_multiplicative(self, xy):
        import itertools

        monos = list(itertools.product(range(3), repeat=2))
        for order in (lex_order(xy), grevlex_order(xy)):
            for a, b in itertools.combinations(monos, 2):
                lo, hi = (a, b) if order.key(a) < order.key(b) else (b, a)
                for c in monos:
                    shifted_lo = tuple(x + y for x, y in zip(lo, c))
                    shifted_hi = tuple(x + y for x, y in zip(hi, c))
                    assert order.key(shifted_lo) < order.key(shifted_hi)

    def test_antidiagonal_ranking_3x3(self):
        vs = VariableSet.matrix(3)
        rank = antidiagonal_ranking(vs)
        names = [vs.names[k] for k in rank]
        assert names[:3] == ["m[1,3]", "m[1,2]", "m[1,1]"]
        assert names[3] == "m[2,3]"

    def test_antidiagonal_leads_minors(self):
        # every minor of the generic matrix must lead with its antidiagonal term
        from sporbits.symplectic import determinant

        vs = VariableSet.matrix(3)
        order = antidiagonal_order(vs)
        import itertools

        for size in (1, 2, 3):
            for rows in itertools.combinations(range(1, 4), size):
                for cols in itertools.combinations(range(1, 4), size):
                    sub = [
                        [Polynomial.variable(vs, vs.matrix_var(i, j)) for j in cols]
                        for i in rows
                    ]
                    minor = determinant(sub)
                    anti = (0,) * len(vs)
                    lead = max(minor.terms, key=order.key)
                    expected = [0] * len(vs)
                    for k, i in enumerate(rows):
                        expected[vs.matrix_var(i, cols[size - 1 - k])] = 1
                    assert lead == tuple(expected)

    def test_weight_refined_prefers_low_weight(self, xy):
        order = weight_refined_order(xy, [3, 1])
        p = poly(xy, "x^2 + y^2")
        assert max(p.terms, key=order.key) == (0, 2)

    def test_weight_refined_is_graded(self, xy):
        # total degree is compared before weight, keeping 1 minimal
        order = weight_refined_order(xy, [3, 1])
        assert order.key((1, 0)) > order.key((0, 0))

    def test_weight_refined_rejects_negative(self, xy):
        with pytest.raises(ValueError):
            weight_refined_order(xy, [1, -1])

    def test_elimination_block_dominates(self, xy):
        order = elimination_order(VariableSet.named("x", "y", "t"), lex_order(xy))
        assert order.key((0, 0, 1)) > order.key((5, 5, 0))


# Reference keys written straight from each preset's definition, apart from
# the weight-matrix construction: both must order every monomial alike.


def _ref_lex(rank):
    return lambda m: tuple(m[v] for v in rank)


def _ref_grevlex(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _ref_weight(w, tie_key):
    return lambda m: (sum(m), -sum(e * x for e, x in zip(m, w)), tie_key(m))


def _ref_elimination(vs, k, inner_key):
    base = len(vs) - k
    return lambda m: (m[base:], inner_key(m[:base] + (0,) * k))


def _ref_presets():
    """(order, reference key) pairs: every preset on three named variables,
    and on a 2x2 matrix ring with a t block."""
    xyz, xy = VariableSet.named("x", "y", "z"), VariableSet.named("x", "y")
    xyt = VariableSet.named("x", "y", "t")
    w = (2, 0, 1)
    cases = [
        (lex_order(xyz), _ref_lex((0, 1, 2))),
        (lex_order(xyz, (2, 0, 1)), _ref_lex((2, 0, 1))),
        (grevlex_order(xyz), _ref_grevlex),
        (weight_refined_order(xyz, w), _ref_weight(w, _ref_lex((0, 1, 2)))),
        (weight_refined_order(xyz, w, grevlex_order(xyz)), _ref_weight(w, _ref_grevlex)),
        (elimination_order(xyt, lex_order(xy)), _ref_elimination(xyt, 1, _ref_lex((0, 1)))),
        (elimination_order(xyt, grevlex_order(xy)), _ref_elimination(xyt, 1, lambda m: _ref_grevlex(m[:2]))),
    ]
    base = VariableSet.matrix(2)
    ext = VariableSet(base.names + ("t",), matrix_size=2)
    anti, anti_ext = _ref_lex(antidiagonal_ranking(base)), _ref_lex(antidiagonal_ranking(ext))
    w4, w5 = (0, 1, 2, 1), (0, 1, 2, 1, 0)
    cases += [
        (lex_order(ext), _ref_lex(range(5))),
        (grevlex_order(ext), _ref_grevlex),
        (antidiagonal_order(ext), anti_ext),
        (weight_refined_order(base, w4, antidiagonal_order(base)), _ref_weight(w4, anti)),
        (weight_refined_order(ext, w5, antidiagonal_order(ext)), _ref_weight(w5, anti_ext)),
        (elimination_order(ext, antidiagonal_order(base)), _ref_elimination(ext, 1, anti)),
    ]
    return [pytest.param(order, ref, id=f"{len(order.vs)}vars-{order.name}") for order, ref in cases]


class TestTermOrder:
    @pytest.mark.parametrize("order, ref", _ref_presets())
    def test_matches_reference_key(self, order, ref):
        monos = [m for m in itertools.product(range(4), repeat=len(order.vs)) if sum(m) <= 3]
        assert sorted(monos, key=order.key) == sorted(monos, key=ref)
        assert len({order.key(m) for m in monos}) == len(monos)

    @pytest.mark.parametrize(
        "order",
        [
            lex_order(VariableSet.named("x")),
            grevlex_order(VariableSet.named("x")),
            elimination_order(VariableSet.named("x"), lex_order(VariableSet.named())),
        ],
        ids=["lex", "grevlex", "elimination"],
    )
    def test_one_variable_ring(self, order):
        assert max({(2,): 1, (1,): 1, (0,): 1}, key=order.key) == (2,)
        x, one = Polynomial.variable(order.vs, 0), Polynomial.constant(order.vs, 1)
        assert buchberger([x * x * x - x, x * x - one], order) == [x * x - one]

    def test_elimination_needs_a_ring_extending_the_inner_one(self, xy):
        for vs in (xy, VariableSet.named("y", "x", "t")):
            with pytest.raises(ValueError):
                elimination_order(vs, lex_order(xy))

    def test_rejects_wrong_width_row(self, xy):
        with pytest.raises(ValueError):
            TermOrder(xy, ((1, 1, 1),), (0, 1), "bad")

    def test_rejects_non_permutation_ranking(self, xy):
        with pytest.raises(ValueError):
            TermOrder(xy, (), (0, 0), "bad")
        with pytest.raises(ValueError):
            lex_order(xy, [1])

    def test_equal_by_matrix_not_name(self, xy):
        assert lex_order(xy) == TermOrder(xy, (), (0, 1), "another name")
        assert hash(lex_order(xy)) == hash(TermOrder(xy, (), (0, 1), "x"))
        assert lex_order(xy) != lex_order(xy, (1, 0))
        assert lex_order(xy) != grevlex_order(xy)

    @pytest.mark.parametrize("order, ref", _ref_presets())
    def test_key_ends_with_ranked_exponents(self, order, ref):
        # fields from the least significant: the degree, the exponents from
        # the last-ranked variable up, then the weight rows from the last up
        n, rows = len(order.vs), order.weights
        fields = lambda k: [k >> (FIELD_BITS + 1) * f & FIELD_MASK for f in range(n + 1 + len(rows))]
        for m in itertools.product(range(3), repeat=n):
            k = order.key(m)
            dots = [sum(e * x for e, x in zip(m, row)) for row in rows]
            assert fields(k)[::-1] == dots + [m[v] for v in order.ranking] + [sum(m)]
            assert k >> (FIELD_BITS + 1) * (n + 1 + len(rows)) == 0
            assert order.exponents(k) == m

    @pytest.mark.parametrize("order, ref", _ref_presets())
    def test_key_is_linear_and_guards_test_divisibility(self, order, ref):
        monos = list(itertools.product(range(3), repeat=len(order.vs)))
        key, guards = order.key, order.guards
        for a in monos:
            assert key(a) & guards == 0
            for b in monos[::5]:
                assert key(a) + key(b) == key(tuple(x + y for x, y in zip(a, b)))
                divides = all(x <= y for x, y in zip(a, b))
                assert ((key(b) - key(a)) & guards == 0) == divides, (a, b)

    def test_over_wide_exponent_is_refused(self, xy):
        for order in (lex_order(xy), grevlex_order(xy), weight_refined_order(xy, (3, 0))):
            with pytest.raises(ValueError):
                order.key((FIELD_MASK + 1, 0))
        # the widest exponent fits unless a weight row scales it past the field
        assert lex_order(xy).exponents(lex_order(xy).key((FIELD_MASK, 0))) == (FIELD_MASK, 0)
        with pytest.raises(ValueError):
            weight_refined_order(xy, (0, 2)).key((FIELD_MASK // 2 + 1, 0))

    def test_rejects_negative_row(self, xy):
        with pytest.raises(ValueError):
            TermOrder(xy, ((1, -1),), (0, 1), "bad")

    def test_weight_row_is_max_minus_weight(self, xy):
        xyz = VariableSet.named("x", "y", "z")
        order = weight_refined_order(xyz, (2, 0, 1))
        assert order.weights == ((1, 1, 1), (0, 2, 1))

    def test_replace_key(self, xy):
        order = grevlex_order(xy)
        calls = []

        def spy(mono):
            calls.append(mono)
            return order.key(mono)

        traced = dataclasses.replace(order, key=spy)
        assert traced == order and traced.key is spy
        assert max(poly(xy, "x*y + y^3").terms, key=traced.key) == (0, 3)
        assert calls


class TestPairLcm:
    """`_lcm` keys the lcm of two leads from their keys by linearity."""

    @pytest.mark.parametrize("order, ref", _ref_presets())
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_the_key_of_the_max_exponents(self, order, ref, data):
        n = len(order.vs)
        lead = st.lists(st.integers(0, 7), min_size=n, max_size=n).map(tuple)
        ea, eb = data.draw(lead), data.draw(lead)
        # the drawn pair, and b cut to the variables a lacks, which is coprime to a
        for eb in (eb, tuple(0 if x else y for x, y in zip(ea, eb))):
            common = sum(1 << v for v in range(n) if ea[v] and eb[v])
            lcm = _lcm(order.key(ea), order.key(eb), ea, eb, common, order.units)
            assert lcm == order.key(tuple(map(max, ea, eb))), (ea, eb)
            assert order.exponents(lcm) == tuple(map(max, ea, eb))

    @pytest.mark.parametrize("make_order", [lex_order, grevlex_order], ids=["lex", "grevlex"])
    def test_overflowing_lcm_raises_when_its_pair_is_created(self, xy, make_order):
        # the lcm x^20000*y^20000 overflows the degree field; with a pair cap
        # of 0 the first pair taken would exit on the cap, so the ValueError
        # comes from creating the pair, not from taking it; s_polynomial
        # keys its lcm the same way and raises the same error
        order = make_order(xy)
        G = [poly(xy, "x^20000*y"), poly(xy, "x*y^20000")]
        with pytest.raises(ValueError, match=f"^{_OVERFLOW}$"):
            s_polynomial(*G, order)
        for budget in (None, GBBudget(max_pairs=0)):
            with pytest.raises(ValueError, match=f"^{_OVERFLOW}$"):
                buchberger(G, order, budget)
            with pytest.raises(ValueError, match=f"^{_OVERFLOW}$"):
                is_groebner_basis(G, order, budget)


_VS6 = VariableSet.matrix(6)
_VS6T = VariableSet(_VS6.names + ("t",), matrix_size=6)


def _orders_6x6():
    """Every preset at 6x6: lex, grevlex, antidiagonal, the column-weight
    refinement over it, and elimination of t over each of the last two."""
    anti = antidiagonal_order(_VS6)
    refined = weight_refined_order(_VS6, column_weights(_VS6), anti)
    return [
        lex_order(_VS6),
        grevlex_order(_VS6),
        anti,
        refined,
        elimination_order(_VS6T, anti),
        elimination_order(_VS6T, refined),
    ]


_ORDERS_6X6 = _orders_6x6()
_IDS_6X6 = ["lex", "grevlex", "antidiagonal", "weight", "elim-antidiagonal", "elim-weight"]


def _monomials(n, top=200):
    # at most 37 * 200 = 7,400 in degree, so twice that under a weight of 2
    # still fits a field, and keys of two draws add without overflow
    return st.lists(st.integers(0, top), min_size=n, max_size=n).map(tuple)


def _homogeneous_monomials(n, degree):
    # each of `degree` factors picks a variable
    return st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree).map(
        lambda picks: tuple(picks.count(v) for v in range(n))
    )


class TestKeyRoundTrip:
    """The kernel's keys at 6x6, under every preset order."""

    @pytest.mark.parametrize("order", _ORDERS_6X6, ids=_IDS_6X6)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_keys_round_trip_and_add(self, order, data):
        n = len(order.vs)
        a, b = data.draw(_monomials(n)), data.draw(_monomials(n))
        assert order.exponents(order.key(a)) == a
        assert order.key(a) + order.key(b) == order.key(tuple(map(sum, zip(a, b))))
        assert order.key(a) == sum(e * u for e, u in zip(a, order.units))

    @pytest.mark.parametrize("order", _ORDERS_6X6, ids=_IDS_6X6)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_pack_then_unpack_is_the_identity(self, order, data):
        vs = order.vs
        terms = data.draw(st.dictionaries(
            _monomials(len(vs), top=5),
            st.integers(-9, 9).filter(bool) | st.fractions().filter(bool),
            max_size=6,
        ))
        f = Polynomial(vs, terms)
        assert _unpack(_pack(f, order), order) == f

    @pytest.mark.parametrize("order", _ORDERS_6X6, ids=_IDS_6X6)
    def test_widest_exponent_round_trips_and_one_more_raises(self, order):
        n = len(order.vs)
        for v in range(n):
            unit = [0] * n
            unit[v] = FIELD_MASK
            if max([1, *(row[v] for row in order.weights)]) == 1:
                assert order.exponents(order.key(tuple(unit))) == tuple(unit)
            unit[v] += 1
            with pytest.raises(ValueError):
                order.key(tuple(unit))


class TestWeightRefinedKeyLayout:
    """A weight-refined key holds the tie-break's key in its low slots and
    its weight in its top two fields, for every preset as the tie-break."""

    @pytest.mark.parametrize("tie, ref", _ref_presets())
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_low_slots_are_the_tie_key_and_the_weight_reads_off(self, tie, ref, data):
        n = len(tie.vs)
        w = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        m = data.draw(_monomials(n, top=40))
        order = weight_refined_order(tie.vs, w, tie)
        key = order.key(m)
        assert key & tie_key_mask(tie) == tie.key(m)

    @pytest.mark.parametrize("tie, ref", _ref_presets())
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_keyed_initial_basis_matches_the_oracle(self, tie, ref, data):
        # a degree-homogeneous draw, which keyed_initial_basis cuts at its
        # lead, and a general one, which it refuses unless it is homogeneous
        vs = tie.vs
        w = data.draw(st.lists(st.integers(0, 4), min_size=len(vs), max_size=len(vs)))
        coeffs = st.integers(-9, 9).filter(bool) | st.fractions().filter(bool)
        terms = data.draw(st.dictionaries(_monomials(len(vs), top=4), coeffs, min_size=1, max_size=6))
        degree = data.draw(st.integers(0, 8))
        homogeneous = data.draw(st.dictionaries(_homogeneous_monomials(len(vs), degree), coeffs, min_size=1, max_size=6))
        order = weight_refined_order(vs, w, tie)
        for f in (Polynomial(vs, terms), Polynomial(vs, homogeneous)):
            if len({sum(m) for m in f.terms}) > 1:
                with pytest.raises(ValueError, match="homogeneous"):
                    keyed_initial_basis([_pack(f, order)], order, w)
            else:
                assert _keyed_initial_form(f, w, tie) == _monic(initial_form(f, w), order)

    @pytest.mark.parametrize("tie, ref", _ref_presets())
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_weight_mask_keeps_degree_and_weight(self, tie, ref, data):
        # two keys agree under the mask exactly when their monomials share
        # degree and w-weight, and the masked key is at most the key
        n = len(tie.vs)
        w = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        degree = data.draw(st.integers(0, 6))
        a, b = data.draw(_homogeneous_monomials(n, degree)), data.draw(_monomials(n, top=3))
        order = weight_refined_order(tie.vs, w, tie)
        mask = weight_mask(order, w)
        ka, kb = order.key(a), order.key(b)
        same = sum(a) == sum(b) and sum(map(mul, a, w)) == sum(map(mul, b, w))
        assert (ka & mask == kb & mask) == same
        assert ka & mask <= ka

    def test_weight_mask_needs_an_order_refining_the_weights(self, xy):
        x = _pack(poly(xy, "x"), lex_order(xy))
        for order in (lex_order(xy), weight_refined_order(xy, [1, 0])):
            with pytest.raises(ValueError, match="refine"):
                weight_mask(order, [0, 1])
            with pytest.raises(ValueError, match="refine"):
                keyed_initial_basis([x], order, [0, 1])
        # a constant shift of the weights refines to the same order, and
        # the mask is the same for either
        order = weight_refined_order(xy, [0, 1])
        assert weight_mask(order, [2, 3]) == weight_mask(order, [0, 1])


class TestNormalForm:
    def test_single_reducer(self, xy):
        f = poly(xy, "x^2 - y")
        g = poly(xy, "x^2 - 1")
        assert normal_form(f, [g], lex_order(xy)) == poly(xy, "1 - y")

    def test_zero_remainder_means_membership(self, xy):
        order = lex_order(xy)
        gb = buchberger([poly(xy, "x^2 - 1"), poly(xy, "x*y - 1")], order)
        assert normal_form(poly(xy, "x - y"), gb, order).is_zero()
        assert not normal_form(poly(xy, "x + 1"), gb, order).is_zero()

    def test_normal_form_is_linear(self, xy):
        order = grevlex_order(xy)
        G = [poly(xy, "x^2 - y"), poly(xy, "y^2 - 1")]
        a, b = poly(xy, "x^3 + y"), poly(xy, "x*y^2 - 2*x")
        nf = lambda p: normal_form(p, G, order)
        assert nf(a + b) == nf(a) + nf(b)

    def test_s_polynomial_cancels_leads(self, xy):
        order = lex_order(xy)
        f, g = poly(xy, "x^2*y - 1"), poly(xy, "x*y^2 - x")
        s = s_polynomial(f, g, order)
        lead = max(s.terms, key=order.key)
        assert order.key(lead) < order.key((2, 2))
        # y*f - x*g, built from the tails with no polynomial products
        assert s == poly(xy, "x^2 - y")

    def test_s_polynomial_of_zero_names_the_argument(self, xy):
        order = lex_order(xy)
        zero, f = poly(xy, "0"), poly(xy, "x - y")
        for args, name in (((zero, f), "f"), ((f, zero), "g"), ((zero, zero), "f")):
            with pytest.raises(ValueError, match=f"^s_polynomial: {name} is zero$"):
                s_polynomial(*args, order)

    def test_certificate(self, xy):
        order = lex_order(xy)
        gens = [poly(xy, "x^2 - 1"), poly(xy, "x*y - 1")]
        assert not is_groebner_basis(gens, order)
        assert is_groebner_basis(buchberger(gens, order), order)
        assert is_groebner_basis([], order) and is_groebner_basis([poly(xy, "0"), gens[0]], order)

    def test_certificate_budget(self, xy):
        gens = buchberger([poly(xy, "x^3 - y"), poly(xy, "x*y^2 - 1")], grevlex_order(xy))
        # basis_size counts the divisors, so a zero adds none; as in
        # buchberger, the pair that passes the cap is counted
        for G in (gens, gens + [poly(xy, "0")]):
            with pytest.raises(BudgetExceeded) as exc:
                is_groebner_basis(G, grevlex_order(xy), GBBudget(max_pairs=1))
            assert exc.value.reason == "pair cap"
            assert exc.value.stats == {"pairs_processed": 2, "basis_size": len(gens)}

    def test_keyed_certificate_takes_term_dicts(self, xy):
        # the keyed core answers as is_groebner_basis does on the same
        # polynomials packed: empty dicts add no divisor, list order is free
        order = lex_order(xy)
        gens = [poly(xy, "x^2 - 1"), poly(xy, "x*y - 1")]
        gb = buchberger(gens, order)
        for G, expected in ((gb, True), (gens, False)):
            dicts = [_pack(g, order) for g in G]
            assert keyed_certificate(dicts, order) is expected
            assert keyed_certificate([{}] + dicts[::-1], order) is expected
            assert is_groebner_basis(G, order) is expected
        assert keyed_certificate([], order) and keyed_certificate([{}], order)

    def test_an_order_over_other_variables_is_refused(self, xy):
        # an order over the same names ranked y > x, or over a third
        # variable, is not the polynomials' order: no entry point keys their
        # terms under it (the first would give the basis for x > y)
        gens = [poly(xy, "x^2 - y"), poly(xy, "x*y - 1")]
        for order in (lex_order(VariableSet.named("y", "x")), lex_order(VariableSet.named("x", "y", "z"))):
            for call in (
                lambda: buchberger(gens, order),
                lambda: normal_form(gens[0], gens[1:], order),
                lambda: is_groebner_basis(gens, order),
                lambda: s_polynomial(*gens, order),
                lambda: Ideal(xy, gens).groebner_basis(order),
            ):
                with pytest.raises(ValueError, match="mixed variable sets"):
                    call()

    def test_certificate_takes_buchbergers_pairs(self, monkeypatch):
        # on a reduced basis the certificate and buchberger reduce the same
        # S-pairs in the same order, and the certificate's pairs index the
        # divisor order, so the list order of G does not matter
        from sporbits import groebner

        pairs = []
        s_pair = groebner._s_pair

        def spy(f, g, lcm, guards):
            pairs.append((f[0], g[0]))
            return s_pair(f, g, lcm, guards)

        gens, order = _pair_trace_case("xyz-grevlex")
        gb = buchberger(gens, order)
        monkeypatch.setattr(groebner, "_s_pair", spy)
        seen = []
        checks = [lambda: buchberger(gb, order) == gb] + [lambda G=G: is_groebner_basis(G, order) for G in (gb, gb[::-1])]
        for check in checks:
            pairs.clear()
            assert check()
            seen.append(list(pairs))
        assert len(seen[0]) > 1 and seen[0] == seen[1] == seen[2]


class TestBuchberger:
    def test_textbook_pair(self, xy):
        order = lex_order(xy)
        gb = buchberger([poly(xy, "x^2 - 1"), poly(xy, "x*y - 1")], order)
        assert gb == sorted(
            [poly(xy, "x - y"), poly(xy, "y^2 - 1")],
            key=lambda p: max(map(order.key, p.terms)),
        )

    def test_reduced_gb_is_a_fixed_point(self, xy):
        order = grevlex_order(xy)
        gb = buchberger([poly(xy, "x^3 - 2*x*y"), poly(xy, "x^2*y - 2*y^2 + x")], order)
        assert buchberger(gb, order) == gb

    def test_generator_order_irrelevant(self, xy):
        order = lex_order(xy)
        gens = [poly(xy, "x^2 - 1"), poly(xy, "x*y - 1"), poly(xy, "y^2 - 1")]
        assert buchberger(gens, order) == buchberger(gens[::-1], order)

    def test_monic_output(self, xy):
        order = lex_order(xy)
        gb = buchberger([poly(xy, "2*x^2 - 2"), poly(xy, "3*x*y - 3")], order)
        for p in gb:
            assert p.terms[max(p.terms, key=order.key)] == Fraction(1)

    def test_unit_ideal(self, xy):
        order = lex_order(xy)
        gb = buchberger([poly(xy, "x"), poly(xy, "x - 1")], order)
        assert gb == [poly(xy, "1")]

    def test_katsura_like_system(self):
        # a dense inhomogeneous system exercises both criteria paths
        vs = VariableSet.named("u", "v", "w")
        order = grevlex_order(vs)
        gens = [
            poly(vs, "u + 2*v + 2*w - 1"),
            poly(vs, "u^2 + 2*v^2 + 2*w^2 - u"),
            poly(vs, "2*u*v + 2*v*w - v"),
        ]
        gb = buchberger(gens, order)
        assert buchberger(gb, order) == gb
        for g in gens:
            assert normal_form(g, gb, order).is_zero()

    def test_keyed_basis_is_sorted_by_lead_and_leaves_its_input(self, xy):
        order = grevlex_order(xy)
        gens = [_pack(poly(xy, "x^3 - 2*x*y"), order), _pack(poly(xy, "x^2*y - 2*y^2 + x"), order), {}]
        copies = [dict(g) for g in gens]
        basis = keyed_basis(gens, order)
        assert gens == copies
        assert [max(t) for t in basis] == sorted(max(t) for t in basis)
        assert [_unpack(t, order) for t in basis] == buchberger([_unpack(g, order) for g in gens], order)

    def test_zero_generators_are_dropped(self, xy):
        # keyed_basis drops empty dicts; buchberger unpacks over the order's
        # variables, so a basis of zeros alone is empty and needs no generator
        order = grevlex_order(xy)
        gens = [_pack(poly(xy, s), order) for s in ("x^2 - y", "x*y - 1")]
        assert keyed_basis([{}] + gens + [{}], order) == keyed_basis(gens, order)
        assert keyed_basis([{}, {}], order) == keyed_basis([], order) == []
        assert buchberger([poly(xy, "0")], order) == buchberger([], order) == []
        basis = buchberger([poly(xy, "0"), poly(xy, "x*y - 1")], order)
        assert basis == [poly(xy, "x*y - 1")] and all(g.vs == xy for g in basis)

    def test_keyed_basis_time_cap_counts_from_start(self, xy, monkeypatch):
        # the cap counts from the call: a clock at 0 on entry and 61 after
        # stops the first pair, one that stays at 1,000 stops nothing
        from sporbits import groebner

        order = grevlex_order(xy)
        gens = [_pack(poly(xy, "x^3 - 2*x*y"), order), _pack(poly(xy, "x^2*y - 2*y^2 + x"), order)]
        budget = GBBudget(max_seconds=60.0)
        readings = itertools.chain([0.0], itertools.repeat(61.0))
        monkeypatch.setattr(groebner, "time", SimpleNamespace(monotonic=lambda: next(readings)))
        with pytest.raises(BudgetExceeded) as exc:
            keyed_basis(gens, order, budget)
        assert exc.value.reason == "time cap"
        assert exc.value.stats["pairs_processed"] == 1
        monkeypatch.setattr(groebner, "time", SimpleNamespace(monotonic=lambda: 1000.0))
        assert keyed_basis(gens, order, budget) == keyed_basis(gens, order)

    def test_time_cap_stops_a_long_reduction(self, monkeypatch):
        # y*z - x and y - 1 give the S-pair z - x, and reducing x by x - P
        # writes P's 20,825 terms in one step; the clock passes the cap as
        # that S-pair is built, so the check inside the reduction raises
        # before the remainder z - P is finished or joins the basis
        from sporbits import groebner

        vs = VariableSet.named("y", "z", "x", "a", "b", "c")
        order = lex_order(vs)
        P = Polynomial(vs, {(0, 0, 0, i, j, k): 1 for i in range(49) for j in range(49 - i) for k in range(49 - i - j)})
        assert len(P.terms) == 20_825
        gens = [_pack(g, order) for g in (Polynomial.variable(vs, "x") - P, poly(vs, "y*z - x"), poly(vs, "y - 1"))]
        now = [0.0]
        monkeypatch.setattr(groebner, "time", SimpleNamespace(monotonic=lambda: now[0]))

        def late_s_pair(*args):
            now[0] = 61.0
            return _s_pair(*args)

        monkeypatch.setattr(groebner, "_s_pair", late_s_pair)
        with pytest.raises(BudgetExceeded) as exc:
            keyed_basis(gens, order, GBBudget(max_seconds=60.0))
        assert exc.value.reason == "time cap"
        assert exc.value.stats["basis_size"] == 3
        assert [entry.name for entry in exc.traceback][-4:] == ["keyed_basis", "_groebner_divisors", "_reduce_terms", "check"]

    def test_budget_pairs(self, xy):
        order = lex_order(xy)
        gens = [poly(xy, "x^3 - 2*x*y"), poly(xy, "x^2*y - 2*y^2 + x")]
        with pytest.raises(BudgetExceeded) as exc:
            buchberger(gens, order, GBBudget(max_pairs=1, max_degree=60))
        assert "pair" in exc.value.reason
        assert exc.value.stats

    def test_budget_seconds(self, xy):
        order = lex_order(xy)
        gens = [poly(xy, "x^3 - 2*x*y"), poly(xy, "x^2*y - 2*y^2 + x")]
        with pytest.raises(BudgetExceeded):
            buchberger(gens, order, GBBudget(max_seconds=0.0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("cap", ["max_pairs", "max_degree", "max_seconds"])
    def test_unusable_cap_refused(self, cap, value):
        # nan compares false with everything, so it would lift the cap; a
        # negative cap would stop at once and blame the cap
        with pytest.raises(ValueError, match=f"--{cap.replace('_', '-')} must be finite and at least 0"):
            GBBudget(**{cap: value})

    def test_zero_caps_are_usable(self, xy):
        order = lex_order(xy)
        budget = GBBudget(max_pairs=0, max_degree=0, max_seconds=0.0)
        assert is_groebner_basis([poly(xy, "x")], order, budget)


class TestIdealOps:
    def test_principal_intersection(self, xy):
        I = Ideal(xy, [poly(xy, "x")])
        J = Ideal(xy, [poly(xy, "y")])
        K = ideal_intersection(I, J, lex_order(xy))
        order = lex_order(xy)
        assert K.groebner_basis(order) == [poly(xy, "x*y")]

    def test_containment_absorbs(self, xy):
        I = Ideal(xy, [poly(xy, "x"), poly(xy, "y")])
        J = Ideal(xy, [poly(xy, "x")])
        K = ideal_intersection(I, J, lex_order(xy))
        order = lex_order(xy)
        assert K.groebner_basis(order) == J.groebner_basis(order)

    def test_intersection_with_zero(self, xy):
        I = Ideal(xy, [poly(xy, "x")])
        assert ideal_intersection(I, Ideal(xy, []), lex_order(xy)).is_zero()

    def test_intersection_membership(self, xy):
        I = Ideal(xy, [poly(xy, "x^2"), poly(xy, "x*y")])
        J = Ideal(xy, [poly(xy, "y")])
        K = ideal_intersection(I, J, lex_order(xy))
        order = lex_order(xy)
        gb = K.groebner_basis(order)
        assert normal_form(poly(xy, "x*y"), gb, order).is_zero()
        assert not normal_form(poly(xy, "x^2"), gb, order).is_zero()

    def test_aux_variable_never_leaks(self, xy):
        I = Ideal(xy, [poly(xy, "x - y")])
        J = Ideal(xy, [poly(xy, "x + y")])
        K = ideal_intersection(I, J, lex_order(xy))
        assert all(g.vs.names == xy.names for g in K.generators)

    @pytest.mark.parametrize("I_gens, J_gens", [(["x"], ["y"]), (["x^2", "x*y"], ["y"])])
    def test_aux_variable_takes_a_free_name(self, xy, I_gens, J_gens):
        # with t and t_elim both taken, the intersection over them is the one
        # over x, y with the variables renamed
        taken = VariableSet.named("t", "t_elim")

        def rename(gens):
            return [g.replace("x", "t").replace("y", "t_elim") for g in gens]

        K = ideal_intersection(
            Ideal(taken, [poly(taken, g) for g in rename(I_gens)]),
            Ideal(taken, [poly(taken, g) for g in rename(J_gens)]),
            lex_order(taken),
        )
        ref = ideal_intersection(
            Ideal(xy, [poly(xy, g) for g in I_gens]), Ideal(xy, [poly(xy, g) for g in J_gens]), lex_order(xy)
        )
        assert K.vs == taken
        assert [g.terms for g in K.generators] == [g.terms for g in ref.generators] != []


def initial_form(f: Polynomial, weights) -> Polynomial:
    """The terms of f of minimal total weight (those surviving t -> 0),
    weighed from their exponents: the oracle for keyed_initial_basis, which
    reads the weight off the key."""
    w = [int(x) for x in weights]
    if any(x < 0 for x in w):
        raise ValueError("negative weights rejected")
    if f.is_zero():
        return f
    weighed = [sum(map(mul, f.vs.unpack(k), w)) for k in f._packed]
    best = min(weighed)
    return Polynomial._of(f.vs, {k: c for (k, c), x in zip(f._packed.items(), weighed) if x == best})


def _keyed_initial_form(f: Polynomial, weights, tie=None) -> Polynomial:
    """keyed_initial_basis on a homogeneous f alone, keyed under the
    weight-refined order: f's initial form, made monic."""
    order = weight_refined_order(f.vs, weights, tie)
    [form] = keyed_initial_basis([_pack(f, order)], order, weights)
    return _unpack(form, order)


def _monic(p: Polynomial, order) -> Polynomial:
    """p divided by the coefficient of its lead under `order`."""
    return p.scale(1 / Fraction(p.terms[max(p.terms, key=order.key)]))


class TestInitialIdeals:
    def test_initial_form_examples(self, xy):
        # weight 0 on x, 1 on y: minimal-weight terms survive t -> 0
        p = poly(xy, "x^2 + x*y + y^2")
        for form in (initial_form, _keyed_initial_form):
            assert form(p, [0, 1]) == poly(xy, "x^2")
            assert form(p, [0, 0]) == p

    def test_inhomogeneous_generators_are_refused(self, xy):
        # the weight-refined order compares degree first, so it does not
        # refine w = (0, 1) on y^2 - x, and the initial forms of a basis
        # need not generate in_w(I), which holds y^3 = y*(y^2 - x) + x*y;
        # the refusal is by generator, so <x, x + y^2>, a homogeneous
        # ideal, is refused too
        for gens in (["y^2 - x", "x*y"], ["x", "x + y^2"]):
            with pytest.raises(ValueError, match="homogeneous"):
                initial_ideal(Ideal(xy, [poly(xy, g) for g in gens]), [0, 1])

    def test_initial_form_rejects_negative(self, xy):
        with pytest.raises(ValueError):
            initial_form(poly(xy, "x"), [-1, 0])
        with pytest.raises(ValueError):
            initial_ideal(Ideal(xy, [poly(xy, "x")]), [-1, 0])

    def test_homogeneous_principal(self, xy):
        I = Ideal(xy, [poly(xy, "x^2 + x*y")])
        init = initial_ideal(I, [0, 1])
        order = lex_order(xy)
        assert init.groebner_basis(order) == [poly(xy, "x^2")]

    def test_homogeneous_initial_forms_are_the_reduced_basis(self, xy):
        # Sturmfels, Groebner Bases and Convex Polytopes, Prop. 1.13
        I = Ideal(xy, [poly(xy, "x^2 + x*y"), poly(xy, "x*y^2 - y^3")])
        init = initial_ideal(I, [0, 1])
        order = weight_refined_order(xy, [0, 1])
        assert buchberger(list(init.generators), order) == list(init.generators)

    def test_weight_zero_is_identity(self, xy):
        I = Ideal(xy, [poly(xy, "x^2 + y^2"), poly(xy, "x*y")])
        init = initial_ideal(I, [0, 0])
        order = grevlex_order(xy)
        assert init.groebner_basis(order) == I.groebner_basis(order)

    def test_tie_break_does_not_change_initial_ideal(self):
        vs = VariableSet.matrix(2)
        det = parse_polynomial(vs, "m[1,1]*m[2,2] - m[1,2]*m[2,1]")
        I = Ideal(vs, [det])
        w = [0, 0, 1, 1]
        a = initial_ideal(I, w, tie_break=antidiagonal_order(vs))
        b = initial_ideal(I, w, tie_break=lex_order(vs))
        order = grevlex_order(vs)
        assert a.groebner_basis(order) == b.groebner_basis(order)


class TestIdealClass:
    def test_drops_zero_generators(self, xy):
        I = Ideal(xy, [Polynomial.zero(xy), poly(xy, "x")])
        assert I.generators == (poly(xy, "x"),)

    def test_groebner_basis_ignores_order_name(self, xy):
        gens = [poly(xy, "x^2 + y"), poly(xy, "x*y - 1")]
        I = Ideal(xy, gens)
        lex = lex_order(xy)
        grevlex = grevlex_order(xy)
        impostor = TermOrder(xy, grevlex.weights, grevlex.ranking, lex.name)
        assert I.groebner_basis(lex) != buchberger(gens, grevlex)
        assert I.groebner_basis(impostor) == buchberger(gens, grevlex)

    def test_to_json(self, xy):
        I = Ideal(xy, [poly(xy, "x - y")])
        blob = I.to_json()
        assert blob["variables"] == ["x", "y"]
        assert blob["generators"] == ["x-y"]


def _random_monomial(n, degree, rng):
    cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))


def _random_poly(vs, rng, max_degree=3):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = _random_monomial(len(vs), rng.randint(0, max_degree), rng)
        terms[mono] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Polynomial(vs, terms)


def _random_homogeneous_poly(vs, rng):
    degree = rng.randint(1, 3)
    return Polynomial(vs, {
        _random_monomial(len(vs), degree, rng): Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        for _ in range(rng.randint(1, 3))
    })


def _to_sympy(p, syms):
    import sympy

    return sympy.Poly.from_dict(
        {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()}, *syms
    ).as_expr()


def _from_sympy(expr, vs, syms):
    import sympy

    return Polynomial(vs, {m: Fraction(int(c.p), int(c.q)) for m, c in sympy.Poly(expr, *syms).terms()})


def _sympy_reduced_basis(gens, order, name, syms):
    """sympy's reduced basis under the order sympy calls `name`, made monic
    and sorted by leading monomial, as `buchberger` returns it."""
    import sympy

    basis = []
    for g in sympy.groebner([_to_sympy(g, syms) for g in gens], *syms, order=name).exprs:
        p = _from_sympy(g, order.vs, syms)
        basis.append(p.scale(1 / p.terms[max(p.terms, key=order.key)]))
    return sorted(basis, key=lambda p: max(map(order.key, p.terms)))


def _sympy_weight_order(sympy, weights):
    """weight_refined_order(vs, weights) as a sympy monomial order: degree,
    then the max(w) - w weight, then lex in index order."""
    top = max(weights)

    # a class per call: sympy caches rings by order, and orders compare by class
    class WeightRefined(sympy.polys.orderings.MonomialOrder):
        alias, is_global = f"weight{tuple(weights)}", True

        def __call__(self, m):
            return sum(m), sum((top - x) * e for x, e in zip(weights, m)), m

    return WeightRefined()


class TestSympyOracle:
    """Differential check of buchberger against sympy.groebner, which is not
    a dependency: the test skips where sympy is missing."""

    def test_random_ideals(self):
        sympy = pytest.importorskip("sympy")
        vs = VariableSet.named("x", "y", "z")
        syms = sympy.symbols("x y z")
        rng = random.Random(20261018)
        budget = GBBudget(max_pairs=500, max_degree=12, max_seconds=0.25)
        matched = exhausted = 0
        for _ in range(80):
            gens = [_random_poly(vs, rng) for _ in range(rng.randint(2, 3))]
            for name, order in (("lex", lex_order(vs)), ("grevlex", grevlex_order(vs))):
                try:
                    ours = buchberger(gens, order, budget)
                except BudgetExceeded:
                    exhausted += 1
                    continue
                assert ours == _sympy_reduced_basis(gens, order, name, syms), (name, [str(g) for g in gens])
                assert is_groebner_basis(ours, order)
                matched += 1
        # a run where most cases exhaust the budget checks nothing
        assert matched >= 120, (matched, exhausted)

    def test_random_initial_ideals(self):
        # sympy's reduced basis under the weight-refined order, each element
        # cut to its initial form by the exponent-weighed oracle, is the
        # reduced basis of in_w(I) for homogeneous I (Sturmfels, Prop. 1.13)
        sympy = pytest.importorskip("sympy")
        vs = VariableSet.named("x", "y", "z")
        syms = sympy.symbols("x y z")
        rng = random.Random(20261020)
        budget = GBBudget(max_pairs=500, max_degree=12, max_seconds=0.25)
        matched = exhausted = 0
        for _ in range(60):
            gens = [_random_homogeneous_poly(vs, rng) for _ in range(rng.randint(2, 3))]
            for w in ((0, 1, 2), (2, 0, 1), (1, 1, 0)):
                try:
                    ours = initial_ideal(Ideal(vs, gens), w, budget=budget)
                except BudgetExceeded:
                    exhausted += 1
                    continue
                order = weight_refined_order(vs, w)
                basis = _sympy_reduced_basis(gens, order, _sympy_weight_order(sympy, w), syms)
                expected = [str(initial_form(g, w)) for g in basis]
                assert [str(g) for g in ours.generators] == expected, (w, [str(g) for g in gens])
                matched += 1
        assert matched >= 135, (matched, exhausted)


def _rescan_reduce_terms(terms, reducers, key):
    """The normal form before heap division, kept as the reference: rescan
    every pending term for the largest at each step."""
    work = dict(terms)
    out = {}
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        for _, lead, lead_c, tail in reducers:
            if all(x <= y for x, y in zip(lead, mono)):
                q = tuple(x - y for x, y in zip(mono, lead))
                factor = coeff / lead_c
                for m2, c2 in tail:
                    mm = tuple(x + y for x, y in zip(m2, q))
                    c = work.get(mm, Fraction(0)) - factor * c2
                    if c:
                        work[mm] = c
                    else:
                        work.pop(mm, None)
                break
        else:
            out[mono] = coeff
    return out


def _tuple_entries(G, order):
    """Divisor entries with tuple monomials, built from G in the order
    division tries them (_divisors): ascending (lead degree, lead), ties as
    given."""
    entries = []
    for g in G:
        if not g.is_zero():
            lead = max(g.terms, key=order.key)
            tail = [(m, c) for m, c in g.terms.items() if m != lead]
            entries.append(((sum(lead), order.key(lead)), lead, g.terms[lead], tail))
    return sorted(entries, key=lambda e: e[0])


class TestHeapDivision:
    @pytest.mark.parametrize("order, ref", _ref_presets())
    def test_matches_rescan_reference(self, order, ref):
        rng = random.Random(7)
        for _ in range(60):
            G = [_random_poly(order.vs, rng) for _ in range(rng.randint(1, 4))]
            # f lies near the ideal of G, so terms cancel during its division
            f = _random_poly(order.vs, rng)
            for g in G:
                f = f + _random_poly(order.vs, rng, 2) * g
            ours = normal_form(f, G, order)
            ref = _rescan_reduce_terms(f.terms, _tuple_entries(G, order), order.key)
            # same terms, left in the same order
            assert list(ours.terms.items()) == list(ref.items())

    def test_cancelled_terms(self, xy):
        # x^2 cancels the -x*y of f, then x*y^2 produces x*y again
        order = lex_order(xy)
        G = [poly(xy, "x^2 - x*y"), poly(xy, "x*y^2 - x*y")]
        f = poly(xy, "x^2 + x*y^2 - x*y")
        assert _rescan_reduce_terms(f.terms, _tuple_entries(G, order), order.key) == {(1, 1): 1}
        assert normal_form(f, G, order) == poly(xy, "x*y")
        # and one that cancels for good leaves no term behind
        assert normal_form(poly(xy, "x^2 - x*y"), G, order).is_zero()

    def test_divisors_grown_one_at_a_time(self, xy):
        # a divisor list grown by insort, as Buchberger grows its own, equals
        # the one _divisors sorts from the whole list at once
        order = grevlex_order(xy)
        G = [_pack(poly(xy, s), order) for s in ("y^2 - 1", "x^2 - y", "x", "x^2 + 3", "0")]
        grown = []
        for terms in G:
            if terms:
                insort(grown, _entry(terms), key=itemgetter(0))
        assert grown == _divisors(G)
        # entries are packed: rank (degree, lead), lead, its coefficient, and
        # the term dict itself, not a copy
        ex = order.exponents
        assert [e[0] for e in grown] == [(sum(ex(e[1])), e[1]) for e in grown]
        assert all(_entry(terms)[-1] is terms for terms in G if terms)
        # low-degree leads first; equal leads in the order they were given
        assert [str(_unpack(e[3], order)) for e in grown] == ["x", "y^2-1", "x^2-y", "x^2+3"]

    def test_overflowing_product_raises(self, xy):
        # x reduces to y^FIELD_MASK, which times x overflows the degree field
        order = lex_order(xy)
        G = [Polynomial(xy, {(1, 0): 1, (0, FIELD_MASK): -1})]
        with pytest.raises(ValueError):
            normal_form(poly(xy, "x^2"), G, order)
        with pytest.raises(ValueError):
            buchberger(G + [poly(xy, "x^2")], order, GBBudget(max_degree=2 * FIELD_MASK))

    def test_remainder_matches_sympy_reduced(self):
        sympy = pytest.importorskip("sympy")
        vs = VariableSet.named("x", "y", "z")
        syms = sympy.symbols("x y z")
        rng = random.Random(4)
        budget = GBBudget(max_pairs=500, max_degree=12, max_seconds=0.25)
        compared = 0
        for _ in range(30):
            gens = [_random_poly(vs, rng) for _ in range(rng.randint(2, 3))]
            for name, order in (("lex", lex_order(vs)), ("grevlex", grevlex_order(vs))):
                try:
                    gb = buchberger(gens, order, budget)
                except BudgetExceeded:
                    continue
                for _ in range(2):
                    f = sum((_random_poly(vs, rng, 4) for _ in range(3)), Polynomial.zero(vs))
                    _, rem = sympy.reduced(_to_sympy(f, syms), [_to_sympy(g, syms) for g in gb], *syms, order=name)
                    assert normal_form(f, gb, order) == _from_sympy(rem, vs, syms), (name, str(f))
                    compared += 1
        assert compared >= 90, compared


# (basis size, max degree) after each of the first pairs, with the cap at
# which the run completes: BudgetExceeded.stats at pair caps 0, 1, ... pin the
# order pairs are taken in.  Recorded with the min()-over-a-set pair selection
# that the pair heap replaced.
_PAIR_TRACES = {
    "xyz-grevlex": ([(3, 2), (4, 2), (5, 3), (6, 3)] + [(7, 3)] * 17, 21),
    "xyz-lex": ([(3, 2), (4, 3), (5, 3), (6, 3)] + [(7, 4)] * 4 + [(8, 4)] * 20, 28),
    "216543-weight": ([(2, 4), (3, 5), (4, 6)] + [(5, 7)] * 7, 10),
}


def _pair_trace_case(name):
    if name == "216543-weight":
        I = orbit_ideal(FpfInvolution.from_any("216543"))
        vs = I.vs
        return list(I.generators), weight_refined_order(vs, column_weights(vs), antidiagonal_order(vs))
    vs = VariableSet.named("x", "y", "z")
    gens = [poly(vs, t) for t in ("x^2 + y*z - 2", "x*y + z^2 - 1", "y^2 - x*z + x")]
    return gens, (grevlex_order(vs) if name == "xyz-grevlex" else lex_order(vs))


class TestPairOrder:
    @pytest.mark.parametrize("name", sorted(_PAIR_TRACES))
    def test_budget_stats_at_each_pair_cap(self, name):
        trace, complete = _PAIR_TRACES[name]
        gens, order = _pair_trace_case(name)
        for cap, (size, degree) in enumerate(trace):
            with pytest.raises(BudgetExceeded) as exc:
                buchberger(gens, order, GBBudget(max_pairs=cap))
            assert exc.value.stats == {"pairs_processed": cap + 1, "basis_size": size, "max_degree": degree}
        assert buchberger(gens, order, GBBudget(max_pairs=complete)) == buchberger(gens, order)


# coefficient kinds for the integer kernel: ±1 only, non-unit ints, Fractions
_COEFFS = {
    "unit": st.sampled_from([-1, 1]),
    "int": st.integers(-3, 3).filter(bool),
    "fraction": st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
}


@st.composite
def _xyz_polys(draw, kind, max_terms=3, max_degree=2):
    vs = VariableSet.named("x", "y", "z")
    mono = st.tuples(*[st.integers(0, max_degree)] * 3).filter(lambda m: sum(m) <= max_degree)
    return Polynomial(vs, draw(st.dictionaries(mono, _COEFFS[kind], min_size=1, max_size=max_terms)))


def _ideal_cases():
    """(kind, generators, order): 2 or 3 generators in x, y, z of one
    coefficient kind, under lex or grevlex."""
    return st.sampled_from(sorted(_COEFFS)).flatmap(
        lambda kind: st.tuples(
            st.just(kind),
            st.lists(_xyz_polys(kind), min_size=2, max_size=3),
            st.sampled_from(["lex", "grevlex"]),
        )
    )


def _xyz_order(name):
    vs = VariableSet.named("x", "y", "z")
    return lex_order(vs) if name == "lex" else grevlex_order(vs)


#: x, y, z generators leading with 2, -3 and 1/2 under both lex and grevlex
_NON_UNIT_LEADS = ("2*x^2 + y*z - 1", "-3*x*y + z^2 + y", "1/2*y^3 - y*z + 3")


class TestIntegerCoefficients:
    """The kernel keeps int coefficients where they are integral (`_div`);
    differential checks against the tuple/Fraction rescan reference and
    sympy on unit, non-unit int and Fraction inputs."""

    def test_exact_division(self):
        assert _div(7, 1) == 7 and type(_div(7, 1)) is int
        assert _div(7, -1) == -7 and type(_div(7, -1)) is int
        assert _div(-6, 3) == -2 and type(_div(-6, 3)) is int
        assert _div(3, -2) == Fraction(-3, 2)
        assert _div(Fraction(3, 2), Fraction(3, 4)) == 2 and type(_div(Fraction(3, 2), Fraction(3, 4))) is int
        assert _div(2, Fraction(4, 3)) == Fraction(3, 2)
        assert _div(Fraction(1, 3), -1) == Fraction(-1, 3)

    @settings(max_examples=50, deadline=None)
    @given(_ideal_cases(), st.data())
    def test_matches_rescan_reference(self, case, data):
        kind, gens, name = case
        order = _xyz_order(name)
        f = data.draw(_xyz_polys(kind, max_terms=4, max_degree=3))
        f = f + data.draw(_xyz_polys(kind, max_degree=1)) * gens[0]
        ours = normal_form(f, gens, order)
        ref = _rescan_reduce_terms(f.terms, _tuple_entries(gens, order), order.key)
        assert list(ours.terms.items()) == list(ref.items())
        try:
            gb = buchberger(gens, order, GBBudget(max_pairs=300, max_degree=10, max_seconds=0.5))
        except BudgetExceeded:
            return
        assert is_groebner_basis(gb, order)
        # every generator reduces to zero; each basis element is monic and
        # reduced against the others
        for g in gens:
            assert _rescan_reduce_terms(g.terms, _tuple_entries(gb, order), order.key) == {}
        for idx, b in enumerate(gb):
            assert b.terms[max(b.terms, key=order.key)] == 1
            rest = _tuple_entries(gb[:idx] + gb[idx + 1:], order)
            assert _rescan_reduce_terms(b.terms, rest, order.key) == dict(b.terms)
        # the generators are a basis exactly when their leads divide every
        # lead of the reduced basis
        leads = [max(g.terms, key=order.key) for g in gens]
        divides = all(
            any(all(x <= y for x, y in zip(a, max(b.terms, key=order.key))) for a in leads) for b in gb
        )
        assert is_groebner_basis(gens, order) == divides

    @settings(max_examples=30, deadline=None)
    @given(_ideal_cases())
    def test_matches_sympy(self, case):
        sympy = pytest.importorskip("sympy")
        kind, gens, name = case
        order = _xyz_order(name)
        try:
            ours = buchberger(gens, order, GBBudget(max_pairs=300, max_degree=10, max_seconds=0.5))
        except BudgetExceeded:
            return
        theirs = _sympy_reduced_basis(gens, order, name, sympy.symbols("x y z"))
        assert ours == theirs, (kind, name, [str(g) for g in gens])

    @pytest.mark.parametrize("name", ["lex", "grevlex"])
    def test_non_unit_leads_made_monic_on_exit(self, name):
        # the generators lead with 2, -3 and 1/2 under both orders; the
        # kernel scales only its reduced basis, on exit, so making the
        # generators monic first changes nothing
        order = _xyz_order(name)
        vs = order.vs
        gens = [poly(vs, t) for t in _NON_UNIT_LEADS]
        leads = [g.terms[max(g.terms, key=order.key)] for g in gens]
        assert leads == [2, -3, Fraction(1, 2)]
        ours = buchberger(gens, order)
        assert all(b.terms[max(b.terms, key=order.key)] == 1 for b in ours)
        assert ours == buchberger([g.scale(1 / c) for g, c in zip(gens, leads)], order)
        for idx, b in enumerate(ours):
            assert _rescan_reduce_terms(b.terms, _tuple_entries(ours[:idx] + ours[idx + 1:], order), order.key) == dict(b.terms)
        for g in gens:
            assert _rescan_reduce_terms(g.terms, _tuple_entries(ours, order), order.key) == {}
        sympy = pytest.importorskip("sympy")
        assert ours == _sympy_reduced_basis(gens, order, name, sympy.symbols("x y z"))

    @settings(max_examples=40, deadline=None)
    @given(_ideal_cases())
    def test_s_pair_never_holds_the_lcm_key(self, case):
        # the leads land on the lcm with coefficient 1 each and cancel to 0;
        # the rest is the textbook S-polynomial, whatever the lead coefficients
        _, gens, name = case
        order = _xyz_order(name)
        entries = _divisors([_pack(g, order) for g in gens])
        ex = order.exponents
        for e, f in itertools.combinations(entries, 2):
            lcm = order.key(tuple(map(max, ex(e[1]), ex(f[1]))))
            s = _s_pair(e, f, lcm, order.guards)
            assert lcm not in s and all(s.values())
            shifted = [
                Polynomial(order.vs, {tuple(a - b for a, b in zip(ex(lcm), ex(d[1]))): Fraction(1, d[2])}) * _unpack(d[3], order)
                for d in (e, f)
            ]
            assert _unpack(s, order) == shifted[0] - shifted[1]

    @pytest.mark.parametrize("word", ["15432", "25413", "35142", "14253", "21534"])
    def test_fulton_minors_stay_in_ints(self, word):
        """The Knutson-Miller path: S-pairs of Fulton minors and their
        remainders, including every term stored while dividing, are ints."""

        class IntTerms(dict):
            def __setitem__(self, k, c):
                assert type(c) is int, (k, c)
                super().__setitem__(k, c)

        p = Permutation.from_any(word)
        vs = VariableSet.matrix(p.size)
        order = antidiagonal_order(vs)
        entries = _divisors([_pack(f, order) for _, _, f in fulton_minors(p)])
        assert entries and all(type(c) is int for e in entries for c in e[3].values())
        ex, remainders = order.exponents, 0
        for e, f in itertools.combinations(entries, 2):
            lcm = order.key(tuple(map(max, ex(e[1]), ex(f[1]))))
            s = _s_pair(e, f, lcm, order.guards)
            assert all(type(c) is int for c in s.values())
            # against the two minors alone the remainder is mostly nonzero
            rem = _reduce_terms(IntTerms(s), [e, f], order.guards)
            assert all(type(c) is int for c in rem.values())
            remainders += bool(rem)
            assert _reduce_terms(IntTerms(s), entries, order.guards) == {}
        assert remainders


class TestInputsAreOnlyRead:
    """An entry holds the caller's term dict itself, so the keyed entry
    points must only read their inputs: each equals a copy taken before the
    call, and no dict keyed_basis returns is one it was given."""

    @staticmethod
    def _cases():
        vs = VariableSet.named("x", "y", "z")
        gens = [poly(vs, t) for t in _NON_UNIT_LEADS]
        p = Permutation.from_any("15432")
        yield gens, grevlex_order(vs)
        yield gens, lex_order(vs)
        yield _pair_trace_case("216543-weight")
        yield [f for _, _, f in fulton_minors(p)], antidiagonal_order(VariableSet.matrix(p.size))

    def test_keyed_basis_and_certificate(self):
        for gens, order in self._cases():
            dicts = [_pack(g, order) for g in gens]
            before = [dict(d) for d in dicts]
            basis = keyed_basis(dicts, order)
            assert dicts == before
            assert not any(b is d for b in basis for d in dicts)
            # a reduced basis given back comes back equal, in new dicts
            kept = [dict(b) for b in basis]
            again = keyed_basis(basis, order)
            assert basis == kept == again
            assert not any(a is b for a in again for b in basis)
            for G in (dicts, basis):
                keyed_certificate(G, order)
            assert dicts == before and basis == kept

    def test_normal_form(self):
        for gens, order in self._cases():
            G = buchberger(gens, order)
            f = gens[0] * gens[-1] + gens[1]
            inputs = [f, *gens, *G]
            copies = [Polynomial(g.vs, dict(g.terms)) for g in inputs]
            assert normal_form(f, G, order).is_zero()
            normal_form(f, gens, order)
            assert inputs == copies


def _all_pairs_certificate(G, order):
    """The certificate with no pair criterion, as the reference: every S-pair
    of G's divisors, in combinations order, reduces to zero against them."""
    entries = _divisors([_pack(g, order) for g in G])
    leads = [order.exponents(e[1]) for e in entries]
    return all(
        not _reduce_terms(_s_pair(e, f, order.key(tuple(map(max, a, b))), order.guards), entries, order.guards)
        for (e, a), (f, b) in itertools.combinations(zip(entries, leads), 2)
    )


class TestPairCriteria:
    """is_groebner_basis skips the pairs Buchberger's product and chain
    criteria leave out; its verdict must be the all-pairs certificate's."""

    @pytest.fixture
    def reductions(self, monkeypatch):
        from sporbits import groebner

        calls = []
        reduce_terms = groebner._reduce_terms

        def counted(*args):
            calls.append(args)
            return reduce_terms(*args)

        monkeypatch.setattr(groebner, "_reduce_terms", counted)
        return calls

    @settings(max_examples=60, deadline=None)
    @given(_ideal_cases())
    def test_matches_all_pairs_reference(self, case):
        _, gens, name = case
        order = _xyz_order(name)
        try:
            gb = buchberger(gens, order, GBBudget(max_pairs=300, max_degree=10, max_seconds=0.5))
        except BudgetExceeded:
            gb = []
        # the generators, a basis, one with an element dropped, one with a generator added
        for G in (gens, gens + gens[:1], gb, gb[1:], gb + gens[:1]):
            assert is_groebner_basis(G, order) == _all_pairs_certificate(G, order), [str(g) for g in G]

    def test_fulton_minors_under_shuffled_rankings(self):
        # a basis under the antidiagonal order (Knutson-Miller), and under
        # most lex rankings, but not all: both verdicts occur
        rng = random.Random(13)
        verdicts = set()
        for word in ["1432", "3412", "4231", "15432", "25314", "14253", "35142", "14352", "24153"]:
            p = Permutation.from_any(word)
            vs = VariableSet.matrix(p.size)
            G = [f for _, _, f in fulton_minors(p)]
            orders = [antidiagonal_order(vs)] + [lex_order(vs, rng.sample(range(len(vs)), len(vs))) for _ in range(4)]
            for order in orders:
                verdict = is_groebner_basis(G, order)
                assert verdict == _all_pairs_certificate(G, order), (word, order.ranking)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_coprime_leads_need_no_reduction(self, reductions):
        vs = VariableSet.named("x", "y", "z")
        G = [poly(vs, "x^2 - y"), poly(vs, "y^3 + z"), poly(vs, "z^2 - 1")]
        assert is_groebner_basis(G, lex_order(vs))
        assert reductions == []

    def test_only_failing_pair_is_not_coprime(self, reductions):
        # (z + 1) is coprime with both others; y*(x^2 - 1) - x*(x*y - 1) = x - y
        vs = VariableSet.named("x", "y", "z")
        order = lex_order(vs)
        G = [poly(vs, "z + 1"), poly(vs, "x^2 - 1"), poly(vs, "x*y - 1")]
        assert not is_groebner_basis(G, order)
        assert len(reductions) == 1
        assert normal_form(s_polynomial(G[1], G[2], order), G, order) == poly(vs, "x - y")
