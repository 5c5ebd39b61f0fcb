from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sporbits.orders import FIELD_MASK, lex_order
from sporbits.polynomials import MAX_EXPONENT, Polynomial, VariableSet, parse_polynomial


def evaluate(f, values):
    """f at a point, exactly: one rational value per variable, in index order."""
    total = Fraction(0)
    for mono, coeff in f.terms.items():
        for value, e in zip(values, mono):
            coeff *= Fraction(value) ** e
        total += coeff
    return total


@pytest.fixture
def vs():
    return VariableSet.matrix(2)


@pytest.fixture
def xy():
    return VariableSet.named("x", "y")


def random_polynomials(vs, max_terms=4, max_exp=3):
    coeff = st.fractions(
        min_value=-5, max_value=5, max_denominator=4
    )
    mono = st.tuples(
        *[st.integers(min_value=0, max_value=max_exp) for _ in vs.names]
    )
    term = st.tuples(mono, coeff)
    return st.lists(term, max_size=max_terms).map(
        lambda terms: sum(
            (
                Polynomial.constant(vs, c) * Polynomial(vs, {m: Fraction(1)})
                for m, c in terms
            ),
            Polynomial.zero(vs),
        )
    )


def _ref_add(a, b):
    """Sum of two tuple-keyed term dicts, by the tuple-dict algorithm the
    packed one replaced (so insertion order is comparable too)."""
    out = dict(a)
    for m, c in b.items():
        c = out.get(m, 0) + c
        if c:
            out[m] = c
        else:
            out.pop(m, None)
    return out


def _ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def _ref_str(p):
    """str(p) by the exponent-tuple sort that the packed-key sort replaced:
    descending degree, then descending exponent tuple."""
    if p.is_zero():
        return "0"
    parts = []
    for mono, coeff in sorted(p.terms.items(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0]))):
        body = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(p.vs.names, mono) if e
        )
        mag = abs(coeff)
        piece = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        parts.append(("-" if coeff < 0 else "+") + piece)
    return "".join(parts).removeprefix("+")


def term_dicts(nvars, max_terms=5):
    """Tuple-keyed term dicts with int and Fraction coefficients, no zeros;
    exponents are mostly small, some up to 2**14 - 1, so no product passes
    MAX_EXPONENT."""
    coeff = st.integers(-4, 4) | st.fractions(min_value=-3, max_value=3, max_denominator=4)
    expo = st.integers(0, 3) | st.integers(0, (1 << 14) - 1)
    mono = st.tuples(*[expo] * nvars)
    return st.dictionaries(mono, coeff, max_size=max_terms).map(
        lambda d: {m: c for m, c in d.items() if c}
    )


def near_guard_dicts(nvars, max_terms=5):
    """Tuple-keyed term dicts whose exponents are small or within 3 of 2**14,
    so a product's exponents can cross 2**15 or stop just below it."""
    coeff = st.integers(-4, 4) | st.fractions(min_value=-3, max_value=3, max_denominator=4)
    expo = st.integers(0, 3) | st.integers((1 << 14) - 3, (1 << 14) + 3)
    mono = st.tuples(*[expo] * nvars)
    return st.dictionaries(mono, coeff, max_size=max_terms).map(
        lambda d: {m: c for m, c in d.items() if c}
    )


class TestVariableSet:
    def test_matrix_names(self, vs):
        assert vs.names == ("m[1,1]", "m[1,2]", "m[2,1]", "m[2,2]")

    def test_matrix_var(self, vs):
        idx = vs.matrix_var(2, 1)
        assert vs.names[idx] == "m[2,1]"
        assert str(Polynomial.variable(vs, idx)) == "m[2,1]"

    def test_variable_is_one_exponent(self, vs):
        for idx in range(len(vs)):
            unit = tuple(int(k == idx) for k in range(len(vs)))
            assert Polynomial.variable(vs, idx) == Polynomial(vs, {unit: 1})
            assert Polynomial.variable(vs, vs.names[idx]) == Polynomial(vs, {unit: 1})

    @pytest.mark.parametrize("idx", [-1, 2, 5])
    def test_variable_index_out_of_range(self, xy, idx):
        with pytest.raises(ValueError):
            Polynomial.variable(xy, idx)

    @pytest.mark.parametrize("i, j", [(1, 3), (3, 1), (0, 1), (1, 0), (-1, 2), (3, 3)])
    def test_matrix_entry_out_of_range(self, vs, i, j):
        with pytest.raises(ValueError):
            vs.matrix_var(i, j)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            VariableSet.named("x", "x")


class TestArithmetic:
    def test_basic_identity(self, xy):
        x = Polynomial.variable(xy, "x")
        y = Polynomial.variable(xy, "y")
        left = (x + y) * (x - y)
        right = x * x - y * y
        assert left == right

    def test_power(self, xy):
        x = Polynomial.variable(xy, "x")
        assert (x + Polynomial.constant(xy, 1)) ** 2 == parse_polynomial(
            xy, "x^2 + 2*x + 1"
        )

    def test_zero_annihilates(self, xy):
        x = Polynomial.variable(xy, "x")
        assert x * Polynomial.zero(xy) == Polynomial.zero(xy)
        assert not Polynomial.zero(xy).terms

    def test_fraction_coefficients(self, xy):
        p = parse_polynomial(xy, "1/2*x + 1/3*x")
        assert p == parse_polynomial(xy, "5/6*x")

    def test_scale(self, xy):
        p = parse_polynomial(xy, "x - y")
        assert p.scale(Fraction(-2)) == parse_polynomial(xy, "-2*x + 2*y")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ring_axioms(self, data):
        xy = VariableSet.named("x", "y")
        polys = random_polynomials(xy)
        a, b, c = data.draw(polys), data.draw(polys), data.draw(polys)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_evaluate_is_a_homomorphism(self, data):
        xy = VariableSet.named("x", "y")
        polys = random_polynomials(xy)
        a, b = data.draw(polys), data.draw(polys)
        point = [
            data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=3)),
            data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=3)),
        ]
        assert evaluate(a * b, point) == evaluate(a, point) * evaluate(b, point)
        assert evaluate(a + b, point) == evaluate(a, point) + evaluate(b, point)


class TestPackedAgainstTupleReference:
    """Polynomial on packed keys against a tuple-dict reference."""

    XYZ = VariableSet.named("x", "y", "z")

    def _exact_view(self, p, ref):
        # the public view: tuple keys and Fraction values, in insertion order
        items = list(p.terms.items())
        assert items == list(ref.items())
        assert all(type(m) is tuple and type(c) is Fraction for m, c in items)
        assert len(p.terms) == len(ref)

    @settings(max_examples=80, deadline=None)
    @given(term_dicts(3), term_dicts(3))
    def test_ring_operations(self, a, b):
        p, q = Polynomial(self.XYZ, a), Polynomial(self.XYZ, b)
        self._exact_view(p * q, _ref_mul(a, b))
        self._exact_view(p + q, _ref_add(a, b))
        self._exact_view(p - q, _ref_add(a, {m: -c for m, c in b.items()}))
        assert (p == q) == (a == b)

    @settings(max_examples=60, deadline=None)
    @given(term_dicts(3))
    def test_equality_and_hash_ignore_order_and_type(self, a):
        p = Polynomial(self.XYZ, a)
        q = Polynomial(self.XYZ, {m: Fraction(c) for m, c in reversed(list(a.items()))})
        assert p == q and hash(p) == hash(q)
        assert Polynomial(self.XYZ, dict(p.terms.items())) == p
        assert all(type(c) is int or c.denominator != 1 for c in p._packed.values())

    def test_view_lookups(self, xy):
        p = parse_polynomial(xy, "2*x*y - 1/2")
        assert p.terms[(1, 1)] == 2 and type(p.terms[(1, 1)]) is Fraction
        assert (0, 0) in p.terms and (1, 0) not in p.terms and (1,) not in p.terms
        with pytest.raises(KeyError):
            p.terms[(1,)]


class TestSquare:
    """p * p takes each unordered pair of terms once; p times a distinct copy
    of itself takes the general path.  Both must give the same polynomial."""

    XYZ = VariableSet.named("x", "y", "z")

    @settings(max_examples=80, deadline=None)
    @given(term_dicts(3, max_terms=8) | near_guard_dicts(3))
    @example({})
    @example({(0, 0, 0): 3})
    @example({(0, 0, 0): Fraction(-1, 2)})
    @example({(1 << 14, 0, 0): 1})
    def test_square_matches_general_product(self, a):
        p = Polynomial(self.XYZ, a)
        copy = Polynomial._of(p.vs, dict(p._packed))
        assert copy is not p
        ref = _ref_mul(a, a)
        if any(e > MAX_EXPONENT for mono in ref for e in mono):
            for other in (p, copy):
                with pytest.raises(ValueError):
                    p * other
            return
        square, general = p * p, p * copy
        assert square == general and hash(square) == hash(general)
        assert str(square) == str(general)
        assert square.terms == ref
        assert p**2 == square


class TestMonomialChecks:
    def test_wrong_length_rejected(self, xy):
        # used to be stored as given: printed "x" but compared unequal to x
        with pytest.raises(ValueError):
            Polynomial(xy, {(1,): 1})
        with pytest.raises(ValueError):
            Polynomial(xy, {(1, 0, 0): 1})

    def test_negative_exponent_rejected(self, xy):
        # used to print "y^2" and evaluate to 9/2 at (2, 3)
        with pytest.raises(ValueError):
            Polynomial(xy, {(-1, 2): 1})

    def test_exponent_over_field_rejected(self, xy):
        assert MAX_EXPONENT == 2**15 - 1
        assert parse_polynomial(xy, f"y^{MAX_EXPONENT}").terms == {(0, MAX_EXPONENT): 1}
        for mono in ((32768, 0), (0, 32768), (65536, 0), (0, 65536), (-1, 0)):
            with pytest.raises(ValueError):
                Polynomial(xy, {mono: 1})
        with pytest.raises(ValueError):
            parse_polynomial(xy, f"x*y^{2**15}")

    @pytest.mark.parametrize("text", ["x", "y", "x*y"])
    def test_overflowing_product_raises(self, xy, text):
        # the operands' fields reach 2**14, so the guard scan runs
        var = parse_polynomial(xy, text)
        half = var**16384
        assert half * var**16383 == var**32767 == var**MAX_EXPONENT
        with pytest.raises(ValueError):
            half * half
        with pytest.raises(ValueError):
            half * (half + 1)


class TestKernelLayout:
    """Polynomial keys use the Groebner kernel's 16-bit slots: a key is the
    lex_order(vs) key without its degree slot."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(*[st.integers(0, MAX_EXPONENT // n)] * n)))
    @example((MAX_EXPONENT,))
    @example((0, MAX_EXPONENT))
    @example((0, 0, 0))
    def test_key_is_the_lex_key_without_its_degree_slot(self, mono):
        vs = VariableSet.named(*(f"x{k}" for k in range(len(mono))))
        key = lex_order(vs).key(mono)
        assert vs.pack(mono) == key >> 16
        assert key & 0xFFFF == sum(mono)
        assert FIELD_MASK is MAX_EXPONENT


class TestParsing:
    def test_matrix_entries(self, vs):
        p = parse_polynomial(vs, "-3/2*m[1,2]*m[2,1]^2")
        ((mono, coeff),) = p.terms.items()
        assert coeff == Fraction(-3, 2)
        assert mono == (0, 1, 2, 0)

    def test_leading_minus_and_spaces(self, xy):
        assert parse_polynomial(xy, " - x + 2 * y ") == parse_polynomial(xy, "2*y - x")

    def test_constant(self, xy):
        assert parse_polynomial(xy, "7/3") == Polynomial.constant(xy, Fraction(7, 3))

    def test_unknown_variable(self, xy):
        with pytest.raises(ValueError):
            parse_polynomial(xy, "z + 1")

    def test_garbage(self, xy):
        with pytest.raises(ValueError):
            parse_polynomial(xy, "x ++ y")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_str_parse_roundtrip(self, data):
        vs = VariableSet.matrix(2)
        p = data.draw(random_polynomials(vs))
        assert parse_polynomial(vs, str(p)) == p

    @settings(max_examples=80, deadline=None)
    @given(term_dicts(3, max_terms=8))
    def test_str_matches_tuple_sort_reference(self, terms):
        p = Polynomial(VariableSet.named("x", "y", "z"), terms)
        assert str(p) == _ref_str(p)

    @pytest.mark.parametrize(
        "vs, text, expected",
        [
            (VariableSet.named("x", "y", "z"), "0", "0"),
            (VariableSet.named("x", "y", "z"), "-7/3", "-7/3"),
            (VariableSet.named("x", "y", "z"), "5 + z - x*y + 1/4*y^3 - 3/2*x^2*z", "-3/2*x^2*z+1/4*y^3-x*y+z+5"),
            # 64 slots at 2n = 8, each term touching few of them
            (
                VariableSet.matrix(8),
                "2*m[8,1]^3*m[1,8] - m[4,5]*m[5,4] + 3/5*m[1,1] - 9",
                "2*m[1,8]*m[8,1]^3-m[4,5]*m[5,4]+3/5*m[1,1]-9",
            ),
        ],
        ids=["zero", "constant", "mixed", "wide"],
    )
    def test_str_matches_slot_by_slot_reference(self, vs, text, expected):
        p = parse_polynomial(vs, text)
        assert str(p) == _ref_str(p) == expected

    def test_str_deterministic(self, vs):
        p = parse_polynomial(vs, "m[2,2] + m[1,1] - m[1,2]*m[2,1]")
        assert str(p) == str(parse_polynomial(vs, str(p)))

