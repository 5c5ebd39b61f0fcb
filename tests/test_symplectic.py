import dataclasses
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from sporbits.groebner import DEEP_BUDGET, BudgetExceeded, GBBudget, buchberger, initial_ideal, normal_form
from sporbits.involutions import FpfInvolution, enumerate_fpf, fpf_length, j_bar, opposite_leq
from sporbits.orders import antidiagonal_order, grevlex_order, lex_order, weight_refined_order
from sporbits import groebner, symplectic
from sporbits.pairperms import PairPermutationSet, pair_permutations
from sporbits.permutations import Permutation, length, rank_matrix
from sporbits.polynomials import Polynomial, VariableSet, parse_polynomial
from sporbits.symplectic import (
    MAX_EXPANDED_TERMS,
    build_mjmt,
    classify_orbit,
    column_weights,
    determinant,
    fulton_generators,
    fulton_minors,
    mat_from,
    mat_mul,
    mat_rank,
    orbit_ideal,
    orbit_pfaffian_indices,
    pfaffian,
    pfaffian_terms,
    random_lower_triangular,
    random_symplectic,
    symplectic_form,
    union_schubert_ideal,
    verify_degeneration,
    verify_knutson_miller,
)
from test_groebner import initial_form
from test_polynomials import evaluate


def fpf(text):
    return FpfInvolution.from_any(text)


def perm(text):
    return Permutation.from_any(text)


#: the degeneration benchmark's words at 2n = 8
BENCH_WORDS_2N8 = ["21436587", "21437856", "21563487", "34126587", "43216587"]


def pfaffian_of_indices(A, indices):
    """Pfaffian of the submatrix of A on the given 1-based rows = columns, by
    the general expansion: the reference for the rule-written pfaffians."""
    idx = [i - 1 for i in indices]
    return pfaffian([[A[a][b] for b in idx] for a in idx])


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def permutation_matrix(w):
    size = w.size
    return [[Fraction(int(w.word[i] == j + 1)) for j in range(size)] for i in range(size)]


class TestSymplecticForm:
    def test_2n4(self):
        J = symplectic_form(2)
        assert J == ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))

    def test_antisymmetric_and_invertible(self):
        for n in (1, 2, 3):
            J = mat_from(symplectic_form(n))
            assert J == [[-x for x in row] for row in mat_transpose(J)]
            assert mat_rank(J) == 2 * n


class TestBuildMjmt:
    def test_matches_polynomial_matmul(self):
        # oracle: multiply out M * J * M^T in the polynomial ring
        n = 2
        vs = VariableSet.matrix(2 * n)
        size = 2 * n
        M = [
            [Polynomial.variable(vs, vs.matrix_var(i + 1, j + 1)) for j in range(size)]
            for i in range(size)
        ]
        J = [
            [Polynomial.constant(vs, x) for x in row] for row in symplectic_form(n)
        ]
        MJ = [
            [
                sum((M[i][k] * J[k][j] for k in range(size)), Polynomial.zero(vs))
                for j in range(size)
            ]
            for i in range(size)
        ]
        expected = [
            [
                sum((MJ[i][k] * M[j][k] for k in range(size)), Polynomial.zero(vs))
                for j in range(size)
            ]
            for i in range(size)
        ]
        got = build_mjmt(n)
        assert got == expected

    def test_antisymmetric(self):
        for n in (1, 2, 3):
            A = build_mjmt(n)
            size = 2 * n
            for i in range(size):
                assert A[i][i].is_zero()
                for j in range(size):
                    assert A[i][j] == A[j][i].scale(Fraction(-1))


class TestDeterminantAndPfaffian:
    def test_det_2x2_symbolic(self):
        vs = VariableSet.matrix(2)
        M = [
            [Polynomial.variable(vs, vs.matrix_var(i, j)) for j in (1, 2)] for i in (1, 2)
        ]
        assert determinant(M) == parse_polynomial(vs, "m[1,1]*m[2,2] - m[1,2]*m[2,1]")

    def test_det_numeric(self):
        M = [[Fraction(2), Fraction(1)], [Fraction(7), Fraction(4)]]
        assert determinant(M) == Fraction(1)

    def test_pfaffian_sign_convention(self):
        a = Fraction(5)
        assert pfaffian([[Fraction(0), a], [-a, Fraction(0)]]) == a

    def test_pfaffian_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError):
            pfaffian([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])

    def test_pf_squared_is_det_symbolic(self):
        # size 6 is acceptance criterion 9
        for n in (1, 2):
            A = build_mjmt(n)
            pf = pfaffian(A)
            det = determinant(A)
            assert pf * pf == det

    def test_pfaffian_of_indices(self):
        A = build_mjmt(2)
        assert pfaffian_of_indices(A, [1, 2]) == A[0][1]
        sub = [[A[i - 1][j - 1] for j in (1, 3)] for i in (1, 3)]
        assert pfaffian_of_indices(A, [1, 3]) == pfaffian(sub)

    def test_pfaffian_of_j(self):
        for n in (1, 2, 3):
            J = mat_from(symplectic_form(n))
            assert pfaffian(J) == Fraction(1)


def _inversions(word):
    return sum(a > b for a, b in itertools.combinations(word, 2))


def leibniz_determinant(A):
    """The determinant as a signed sum over all permutations: the oracle for
    the memoized expansion."""
    total = 0
    for w in itertools.permutations(range(len(A))):
        term = (-1) ** _inversions(w)
        for i, j in enumerate(w):
            term = A[i][j] * term
        total = term + total
    return total


def _matchings(idx):
    if not idx:
        yield []
    for k in range(1, len(idx)):
        for rest in _matchings(idx[1:k] + idx[k + 1 :]):
            yield [(idx[0], idx[k])] + rest


def matching_pfaffian(A):
    """The pfaffian as a signed sum over perfect matchings {i1 < j1, ...},
    each signed by the permutation i1 j1 i2 j2 ...: the oracle for the
    memoized expansion."""
    total = 0
    for m in _matchings(list(range(len(A)))):
        term = (-1) ** _inversions([x for pair in m for x in pair])
        for i, j in m:
            term = A[i][j] * term
        total = term + total
    return total


class TestExpansionAgainstOracles:
    """determinant and pfaffian add each signed entry * sub into one term
    dict over Polynomials, and take plain products over numbers."""

    XYZ = VariableSet.named("x", "y", "z")

    def _entries(self, rng, count):
        # small polynomials in 3 variables, so that products collide and cancel
        texts = ["x", "y", "z", "x - y", "2*x*y - z", "1/2*z^2 + y", "x^2 - 3", "-y*z + x", "0", "1"]
        return [parse_polynomial(self.XYZ, rng.choice(texts)) for _ in range(count)]

    @pytest.mark.parametrize("seed", range(4))
    def test_symbolic_4x4_matches_the_oracles(self, seed):
        rng = random.Random(seed)
        M = [self._entries(rng, 4) for _ in range(4)]
        assert determinant(M) == leibniz_determinant(M)
        mixed = [[Fraction(i - j, 2) if (i + j) % 3 == 1 else e for j, e in enumerate(row)] for i, row in enumerate(M)]
        assert determinant(mixed) == leibniz_determinant(mixed)
        A = [[Polynomial.zero(self.XYZ)] * 4 for _ in range(4)]
        for (i, j), entry in zip(itertools.combinations(range(4), 2), self._entries(rng, 6)):
            A[i][j], A[j][i] = entry, -entry
        assert pfaffian(A) == matching_pfaffian(A)
        assert pfaffian(A) * pfaffian(A) == determinant(A)

    def test_generic_4x4_matches_the_oracles(self):
        vs = VariableSet.matrix(4)
        M = [[Polynomial.variable(vs, vs.matrix_var(i, j)) for j in range(1, 5)] for i in range(1, 5)]
        assert len(determinant(M).terms) == 24
        assert determinant(M) == leibniz_determinant(M)
        A = build_mjmt(2)
        assert pfaffian(A) == matching_pfaffian(A)

    def test_numeric_matrices_keep_their_values_and_types(self):
        rng = random.Random(7)
        F = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)] for _ in range(4)]
        assert determinant(F) == leibniz_determinant(F) and type(determinant(F)) is Fraction
        Z = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        assert determinant(Z) == leibniz_determinant(Z) and type(determinant(Z)) is int
        J = [list(row) for row in symplectic_form(2)]
        assert pfaffian(J) == matching_pfaffian(J) == 1 and type(pfaffian(J)) is int
        assert determinant([[0, 0], [0, 0]]) == 0 and type(determinant([[0, 0], [0, 0]])) is Fraction

    def test_overflowing_expansion_raises(self):
        xy = VariableSet.named("x", "y")
        half, zero = parse_polynomial(xy, "x^16384 + y"), Polynomial.zero(xy)
        with pytest.raises(ValueError):
            determinant([[half, zero], [zero, half]])
        A = [[zero] * 4 for _ in range(4)]
        A[0][1], A[1][0], A[2][3], A[3][2] = half, -half, half, -half
        with pytest.raises(ValueError):
            pfaffian(A)
        A[2][3], A[3][2] = parse_polynomial(xy, "x^16383"), parse_polynomial(xy, "-x^16383")
        assert pfaffian(A) == parse_polynomial(xy, "x^32767 + x^16383*y")


def _expanded_minor(vs, rows, cols):
    """The minor as fulton_minors once built it: determinant over Polynomial entries."""
    return determinant([[Polynomial.variable(vs, vs.matrix_var(a, b)) for b in cols] for a in rows])


class TestFultonGenerators:
    def test_2143(self):
        vs = VariableSet.matrix(4)
        gens = set(map(str, fulton_generators(perm("2143")).generators))
        m11 = "m[1,1]"
        nw3 = str(
            determinant(
                [[Polynomial.variable(vs, vs.matrix_var(i, j)) for j in (1, 2, 3)] for i in (1, 2, 3)]
            )
        )
        assert gens == {m11, nw3}

    def test_3124(self):
        gens = set(map(str, fulton_generators(perm("3124"[:3])).generators))
        assert gens == {"m[1,1]", "m[1,2]"}

    def test_identity_is_zero_ideal(self):
        assert fulton_generators(Permutation.identity(3)).is_zero()

    def test_minor_shapes(self):
        minors = fulton_minors(perm("2143"))
        shapes = {(rows, cols) for rows, cols, _ in minors}
        assert ((1,), (1,)) in shapes
        assert ((1, 2, 3), (1, 2, 3)) in shapes

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_leibniz_minor_is_the_determinant(self, size):
        vs = VariableSet.matrix(size)
        for k in range(1, size + 1):
            for rows in itertools.combinations(range(1, size + 1), k):
                for cols in itertools.combinations(range(1, size + 1), k):
                    minor = Polynomial._of(vs, symplectic._minor(vs.units, size, rows, cols))
                    assert minor == _expanded_minor(vs, rows, cols), (rows, cols)
                    assert len(minor.terms) == math.factorial(k)

    @pytest.mark.parametrize("size", [3, 4, 5])
    def test_fulton_minors_are_the_expanded_determinants(self, size):
        vs = VariableSet.matrix(size)
        for word in itertools.permutations(range(1, size + 1)):
            for rows, cols, minor in fulton_minors(Permutation(word)):
                assert minor == _expanded_minor(vs, rows, cols), (word, rows, cols)

    @pytest.mark.parametrize("size", [4, 6])
    def test_minors_keyed_by_order_units_are_the_packed_minors(self, size):
        # all of S4, and a fixed sample of S6
        vs = VariableSet.matrix(size)
        anti = antidiagonal_order(vs)
        orders = (anti, weight_refined_order(vs, column_weights(vs), anti))
        words = list(itertools.permutations(range(1, size + 1)))
        if size == 6:
            words = random.Random(6).sample(words, 40)
        for word in words:
            p = Permutation(word)
            for order in orders:
                packed = [(rows, cols, groebner._pack(minor, order)) for rows, cols, minor in fulton_minors(p)]
                assert symplectic._keyed_minors(p, order.units) == packed, (word, order.name)

    def test_vanishing_cuts_out_the_orbit_points(self):
        # numeric soundness: generators vanish on b * M_w exactly when w <= p
        # fails; here just check they vanish at M_p itself
        p = perm("2143")
        point = [x for row in permutation_matrix(p) for x in row]
        for g in fulton_generators(p).generators:
            assert evaluate(g, point) == 0


class TestUnionSchubertIdeal:
    def test_single(self):
        p = perm("213")
        I = union_schubert_ideal([p])
        order = grevlex_order(I.vs)
        assert I.groebner_basis(order) == fulton_generators(p).groebner_basis(order)

    def test_union_is_contained_in_both(self):
        a, b = perm("2143"), perm("1324")
        K = union_schubert_ideal([a, b])
        order = antidiagonal_order(K.vs)
        gb_a = fulton_generators(a).groebner_basis(order)
        gb_b = fulton_generators(b).groebner_basis(order)
        for g in K.generators:
            assert normal_form(g, gb_a, order).is_zero()
            assert normal_form(g, gb_b, order).is_zero()


class TestOrbitIdeal:
    def test_dense_orbit(self):
        for n in (1, 2, 3):
            assert orbit_ideal(j_bar(n)).is_zero()

    def test_4321(self):
        A = build_mjmt(2)
        I = orbit_ideal(fpf("4321"))
        assert set(I.generators) == {A[0][1], A[0][2]}

    def test_4321_padded(self):
        iota = fpf("43216587")
        A = build_mjmt(4)
        I = orbit_ideal(iota)
        assert set(I.generators) == {A[0][1], A[0][2]}

    def test_216543(self):
        A = build_mjmt(3)
        I = orbit_ideal(fpf("216543"))
        assert set(I.generators) == {
            pfaffian_of_indices(A, [1, 2, 3, 4]),
            pfaffian_of_indices(A, [1, 2, 3, 5]),
        }

    def test_351624(self):
        A = build_mjmt(3)
        I = orbit_ideal(fpf("351624"))
        assert set(I.generators) == {A[0][1], pfaffian_of_indices(A, [1, 2, 3, 4])}

    def test_one_box_shape(self):
        # 21563487 has the single box (3,4) with rank 2: one pfaffian generator
        iota = fpf("21563487")
        A = build_mjmt(4)
        I = orbit_ideal(iota)
        assert I.generators == (pfaffian_of_indices(A, [1, 2, 3, 4]),)

    def test_rule_refuses_nothing_up_to_2n10(self):
        # all 945 involutions at 2n = 10 pass the term bound; the largest
        # pfaffian needed is 8 x 8 and 7,3,2,10,9,8,1,6,5,4 needs the most
        most, sizes = 0, set()
        for n in range(1, 6):
            for iota in enumerate_fpf(n):
                index_sets = orbit_pfaffian_indices(iota)
                sizes |= {len(T) for T in index_sets}
                most = max(most, sum(pfaffian_terms(n, len(T)) for T in index_sets))
        assert sizes == {2, 4, 6, 8}
        assert most == 1_170_050 <= MAX_EXPANDED_TERMS

    @pytest.mark.parametrize("n, q", [(2, 2), (2, 4), (3, 4), (3, 6), (4, 4), (4, 6), (4, 8)])
    def test_pfaffian_terms_counts_the_expansion(self, n, q):
        vs = VariableSet.matrix(2 * n)
        T = range(1, q + 1)
        pf = Polynomial._of(vs, symplectic._mjmt_pfaffian(vs.units, T, n))
        assert len(pf.terms) == pfaffian_terms(n, q)
        assert pf == pfaffian_of_indices(build_mjmt(n), T)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_minor_summation_is_the_pfaffian(self, n):
        # every even T at 2n <= 6: the sum of minors over unions of column
        # pairs is the expanded pfaffian, no two minors share a term, and the
        # column weights single out S = {1..|T|}: in_w(pf(A_T)) = det M[T, 1..|T|]
        vs = VariableSet.matrix(2 * n)
        A = build_mjmt(n)
        weights = column_weights(vs)
        for q in range(2, 2 * n + 1, 2):
            for T in itertools.combinations(range(1, 2 * n + 1), q):
                pf = Polynomial._of(vs, symplectic._mjmt_pfaffian(vs.units, T, n))
                assert pf == pfaffian_of_indices(A, T), T
                assert len(pf.terms) == pfaffian_terms(n, q), T
                assert initial_form(pf, weights) == Polynomial._of(vs, symplectic._minor(vs.units, 2 * n, T, range(1, q + 1))), T

    def test_no_polynomial_products(self, monkeypatch):
        # 21687354 needs 4 x 4 and 6 x 6 pfaffians at 2n = 8; none of them
        # goes through MJM^T, the general expansion or a product
        iota = fpf("21687354")
        assert {len(T) for T in orbit_pfaffian_indices(iota)} == {4, 6}

        def refuse(*args):
            raise AssertionError("orbit_ideal must not multiply or expand")

        for name in ("build_mjmt", "pfaffian", "_expand"):
            monkeypatch.setattr(symplectic, name, refuse)
        monkeypatch.setattr(Polynomial, "__mul__", refuse)
        I = orbit_ideal(iota)
        monkeypatch.undo()
        A = build_mjmt(4)
        assert I.generators == tuple(pfaffian_of_indices(A, T) for T in orbit_pfaffian_indices(iota))

    @pytest.mark.parametrize(
        "word",
        [
            # box (9,10,8): one 10 x 10 pfaffian, C(6,5) * 10! terms
            "2,1,4,3,6,5,8,7,11,12,9,10",
            # box (8,10,6): 8 x 8 and 10 x 10 pfaffians on {1..10}
            "2,1,4,3,6,5,11,12,10,9,7,8",
            # 4321 padded to 2n = 14, above the size cap
            "4,3,2,1,6,5,8,7,10,9,12,11,14,13",
        ],
    )
    def test_oversize_refused_before_expanding(self, word):
        with pytest.raises(ValueError):
            orbit_pfaffian_indices(fpf(word))

    def test_dense_orbit_has_zero_ideal_at_any_size(self):
        assert orbit_ideal(j_bar(7)).generators == ()

    def test_456123(self):
        # box (2,3) with rank 0: every 2 x 2 pfaffian on {1,2,3} that meets
        # {1,2}; index sets {1,2} u S alone would give pf{1,2} only
        A = build_mjmt(3)
        I = orbit_ideal(fpf("456123"))
        assert I.generators == (A[0][1], A[0][2], A[1][2])

    def test_generators_vanish_on_random_orbit_points(self):
        # b * M_w * s for a conjugator w of iota lies in the orbit closure,
        # so every generator vanishes there
        rng = random.Random(7)
        for word in ("4321", "3412"):
            iota = fpf(word)
            I = orbit_ideal(iota)
            for w in pair_permutations(iota).perms:
                Mw = permutation_matrix(w)
                for _ in range(5):
                    b = random_lower_triangular(4, rng)
                    s = random_symplectic(2, rng)
                    pt_matrix = mat_mul(mat_mul(b, Mw), s)
                    point = [x for row in pt_matrix for x in row]
                    for g in I.generators:
                        assert evaluate(g, point) == 0

    def test_generators_cut_out_the_closure(self):
        # oracle from rank matrices, not from the rule: the orbit of kappa
        # lies in the closure of the orbit of iota iff kappa <= iota in the
        # opposite order, iff rank_matrix(kappa) <= rank_matrix(iota)
        # entrywise.  The generators of iota must vanish at points
        # b * M_w * s of the orbit of kappa exactly then.
        rng = random.Random(5)
        for n in (1, 2, 3):
            size = 2 * n
            items = enumerate_fpf(n)
            ideals = {iota: orbit_ideal(iota) for iota in items}
            ranks = {iota: rank_matrix(iota.permutation()) for iota in items}
            for kappa in items:
                Mw = permutation_matrix(pair_permutations(kappa).perms[0])
                points = []
                for _ in range(2):
                    b = random_lower_triangular(size, rng)
                    s = random_symplectic(n, rng)
                    points.append([x for row in mat_mul(mat_mul(b, Mw), s) for x in row])
                for iota in items:
                    inside = opposite_leq(kappa, iota)
                    assert inside == all(
                        a <= c
                        for ra, rc in zip(ranks[kappa], ranks[iota])
                        for a, c in zip(ra, rc)
                    )
                    for point in points:
                        vanish = all(evaluate(g, point) == 0 for g in ideals[iota].generators)
                        assert vanish == inside, (str(iota), str(kappa))

    @pytest.mark.parametrize("n, sample", [(4, 105), (5, 30)], ids=["2n8-all", "2n10-sample"])
    def test_pfaffians_cut_out_the_closure(self, n, sample):
        # the same rank-matrix oracle for every iota against every kappa at
        # 2n = 8 and 30 random kappas at 2n = 10, with each pfaffian pf(A_T)
        # evaluated on the numeric A = M J M^T rather than expanded
        rng = random.Random(8)
        size = 2 * n
        items = enumerate_fpf(n)
        index_sets = {iota: orbit_pfaffian_indices(iota) for iota in items}
        every_set = set().union(*index_sets.values())
        ranks = {iota: rank_matrix(iota.permutation()) for iota in items}
        J = mat_from(symplectic_form(n))
        for kappa in rng.sample(items, sample):
            Mw = permutation_matrix(pair_permutations(kappa).perms[0])
            for _ in range(2):
                b = random_lower_triangular(size, rng)
                s = random_symplectic(n, rng)
                M = mat_mul(mat_mul(b, Mw), s)
                A = mat_mul(mat_mul(M, J), mat_transpose(M))
                zero = {T: pfaffian_of_indices(A, T) == 0 for T in every_set}
                for iota in items:
                    inside = all(
                        a <= c
                        for ra, rc in zip(ranks[kappa], ranks[iota])
                        for a, c in zip(ra, rc)
                    )
                    vanish = all(zero[T] for T in index_sets[iota])
                    assert vanish == inside, (str(iota), str(kappa))


class TestClassifyOrbit:
    def test_identity_maps_to_j_bar(self):
        for n in (1, 2, 3):
            from sporbits.symplectic import mat_identity

            assert classify_orbit(mat_identity(2 * n)) == j_bar(n)

    def test_conjugator_points(self):
        # M_w classifies as iota exactly when w conjugates j_bar onto iota
        for iota in enumerate_fpf(2):
            for w in pair_permutations(iota).perms:
                M = permutation_matrix(w)
                assert classify_orbit(M) == iota

    def test_invariance_under_group_action(self):
        rng = random.Random(11)
        for iota in enumerate_fpf(2):
            w = next(iter(pair_permutations(iota).perms))
            M = permutation_matrix(w)
            for _ in range(5):
                b = random_lower_triangular(4, rng)
                s = random_symplectic(2, rng)
                assert classify_orbit(mat_mul(mat_mul(b, M), s)) == iota

    def test_2n12(self):
        rng = random.Random(12)
        for word in ("12,11,10,9,8,7,6,5,4,3,2,1", "4,3,2,1,9,11,12,10,5,8,6,7"):
            iota = fpf(word)
            M = permutation_matrix(pair_permutations(iota).perms[0])
            b = random_lower_triangular(12, rng)
            s = random_symplectic(6, rng)
            assert classify_orbit(mat_mul(mat_mul(b, M), s)) == iota

    def test_matches_northwest_rank_oracle(self):
        # the per-minor definition: rank_matrix(iota)[i][j] is the rank of
        # the northwest i x j block of M J M^T, on points b * M_w * s of every
        # orbit at 2n = 6 and of two per length at 2n = 8
        rng = random.Random(13)
        by_length = {}
        for iota in enumerate_fpf(4):
            by_length.setdefault(fpf_length(iota), []).append(iota)
        sample = [iota for group in by_length.values() for iota in rng.sample(group, min(2, len(group)))]
        for iota in enumerate_fpf(3) + sample:
            size = iota.size
            J = mat_from(symplectic_form(iota.n))
            Mw = permutation_matrix(pair_permutations(iota).perms[0])
            M = mat_mul(mat_mul(random_lower_triangular(size, rng), Mw), random_symplectic(iota.n, rng))
            A = mat_mul(mat_mul(M, J), mat_transpose(M))
            ranks = tuple(
                tuple(mat_rank([row[:j] for row in A[:i]]) for j in range(1, size + 1))
                for i in range(1, size + 1)
            )
            found = classify_orbit(M)
            assert found == iota
            assert rank_matrix(found.permutation()) == ranks

    def test_rejects_singular(self):
        singular = [
            [[0, 0], [0, 0]],
            # nonzero and rank deficient: a repeated row at 2n = 4, a row
            # summing two others at 2n = 6
            [[1, 2, 0, 1], [0, 1, 3, 0], [1, 2, 0, 1], [2, 0, 1, 1]],
            [
                ["1/2", 1, 0, 0, 2, 1],
                [0, 1, 1, 0, 0, 3],
                ["1/2", 2, 1, 0, 2, 4],
                [1, 0, 0, 1, 0, 0],
                [0, 0, 2, 1, 1, 0],
                [3, 1, 0, 0, 1, 1],
            ],
        ]
        for M in singular:
            assert mat_rank(mat_from(M)) < len(M)
            with pytest.raises(ValueError, match=r"^singular input$"):
                classify_orbit(M)


class TestRandomMatrices:
    def test_lower_triangular_invertible(self):
        rng = random.Random(3)
        for _ in range(10):
            B = random_lower_triangular(4, rng)
            assert mat_rank(B) == 4
            for i in range(4):
                assert all(B[i][j] == 0 for j in range(i + 1, 4))

    def test_symplectic_preserves_form(self):
        rng = random.Random(5)
        J = mat_from(symplectic_form(2))
        for _ in range(10):
            S = random_symplectic(2, rng)
            assert mat_mul(mat_mul(S, J), mat_transpose(S)) == J


class TestVerifiers:
    def test_minimal_reads_its_check_part_way(self):
        # 4,999 distinct candidates: the check is read before candidates 0,
        # 1,000, ..., 4,000, so one that raises on its third call stops the
        # scan at candidate 2,000, long before its end
        masks = range(1, 5000)
        calls = []

        def check():
            calls.append(len(calls))
            if len(calls) == 3:
                raise BudgetExceeded("time cap", {})
            return 1.0

        with pytest.raises(BudgetExceeded):
            symplectic._minimal(masks, check)
        assert len(calls) == 3
        calls.clear()
        assert symplectic._minimal(masks, lambda: calls.append(None) or 1.0) == symplectic._minimal(masks)
        assert len(calls) == 5

    def test_certificate_only_reads_its_inputs(self, monkeypatch):
        # check (i) divides a copy of each g in G_L by v's minors, the
        # minors' dicts being the divisor entries themselves: neither the
        # dicts of G_L nor those of any minor change
        reduce_terms, write_terms = symplectic._reduce_terms, symplectic._write_terms
        G_L, reductions = [], []

        def reading(work, divisors, *args):
            before = [dict(e[3]) for e in divisors]
            out = reduce_terms(work, divisors, *args)
            assert [e[3] for e in divisors] == before
            reductions.append(work)
            return out

        def writing(names, terms, exponents):
            G_L.append((terms, dict(terms)))
            return write_terms(names, terms, exponents)

        monkeypatch.setattr(symplectic, "_reduce_terms", reading)
        monkeypatch.setattr(symplectic, "_write_terms", writing)
        assert verify_degeneration(fpf("216543")).equal is True
        assert G_L and len(reductions) == 2 * len(G_L)
        assert all(terms == copy for terms, copy in G_L)
        assert not any(work is terms for work in reductions for terms, _ in G_L)

    def test_knutson_miller_s3(self):
        for word in itertools.permutations(range(1, 4)):
            assert verify_knutson_miller(Permutation(word))

    def test_knutson_miller_2143(self):
        assert verify_knutson_miller(perm("2143"))

    def test_knutson_miller_pair_cap(self):
        # 2143 has two Fulton generators, so one S-pair; a cap of 0 stops
        # on it, counted as in buchberger
        with pytest.raises(BudgetExceeded) as exc:
            verify_knutson_miller(perm("2143"), GBBudget(max_pairs=0))
        assert exc.value.reason == "pair cap"
        assert exc.value.stats == {"pairs_processed": 1, "basis_size": 2}

    def test_knutson_miller_time_cap_counts_from_the_call(self, monkeypatch):
        # the clock passes the cap while the minors are written, so the
        # certificate gets no time left and stops before its first pair
        now = [0.0]
        monkeypatch.setattr(groebner, "time", SimpleNamespace(monotonic=lambda: now[0]))
        keyed_minors = symplectic._keyed_minors

        def late_minors(*args):
            yield from keyed_minors(*args)
            now[0] = 61.0

        monkeypatch.setattr(symplectic, "_keyed_minors", late_minors)
        with pytest.raises(BudgetExceeded) as exc:
            verify_knutson_miller(perm("2143"), GBBudget(max_seconds=60.0))
        assert exc.value.reason == "time cap"
        assert exc.value.stats == {"pairs_processed": 0}

    def test_knutson_miller_never_unpacks_or_rekeys_a_minor_term(self, monkeypatch):
        # the minors are written keyed by the order's units and the pair lcms
        # keyed from their leads' keys, so no term is unpacked or keyed again
        p = perm("15432")
        unpacked, keyed, certifying = [], [], []
        unpack, certify = VariableSet.unpack, symplectic.keyed_certificate

        def counted_unpack(vs, key):
            unpacked.append(key)
            return unpack(vs, key)

        def counted_order(vs):
            order = antidiagonal_order(vs)

            def key(m):
                keyed.append(bool(certifying))
                return order.key(m)

            return dataclasses.replace(order, key=key)

        def certificate(*args):
            certifying.append(True)
            return certify(*args)

        monkeypatch.setattr(VariableSet, "unpack", counted_unpack)
        monkeypatch.setattr(symplectic, "antidiagonal_order", counted_order)
        monkeypatch.setattr(symplectic, "keyed_certificate", certificate)
        assert verify_knutson_miller(p) is True
        assert certifying
        assert keyed == []
        assert unpacked == []

    @pytest.mark.parametrize("size", [4, 6])
    def test_mask_key_is_the_key_of_the_squarefree_monomial(self, size):
        vs = VariableSet.matrix(size)
        anti = antidiagonal_order(vs)
        rng = random.Random(size)
        for order in (anti, weight_refined_order(vs, column_weights(vs), anti), grevlex_order(vs)):
            for mask in [0, 1, 1 << len(vs) - 1, (1 << len(vs)) - 1] + [rng.getrandbits(len(vs)) for _ in range(50)]:
                m = tuple(mask >> v & 1 for v in range(len(vs)))
                assert symplectic._mask_key(order, mask) == order.key(m), (order.name, mask)

    def test_knutson_miller_refuses_a_lead_off_the_antidiagonal(self, monkeypatch):
        # under lex in index order a 2x2 minor leads with its diagonal term
        monkeypatch.setattr(symplectic, "antidiagonal_order", lex_order)
        assert verify_knutson_miller(perm("2143")) is False

    def test_column_weights(self):
        vs = VariableSet.matrix(4)
        w = column_weights(vs)
        # columns 1,2 weigh 0; columns 3,4 weigh 1
        assert w == (0, 0, 1, 1) * 4

    def test_degeneration_j_bar(self):
        report = verify_degeneration(j_bar(2))
        assert report.equal is True
        assert report.left_generators == ()
        assert report.to_json()["right_initial_generators"] == []

    def test_degeneration_4321(self):
        report = verify_degeneration(fpf("4321"))
        assert report.equal is True
        assert {p.word for p in report.pair_perms} == {(1, 3, 4, 2), (3, 1, 2, 4)}
        assert report.witnesses == ()
        assert report.budget_exhausted is None

    def test_degeneration_3412(self):
        report = verify_degeneration(fpf("3412"))
        assert report.equal is True

    @pytest.mark.parametrize("iota", enumerate_fpf(3), ids=str)
    def test_degeneration_every_involution_2n6(self, iota):
        report = verify_degeneration(iota, DEEP_BUDGET)
        assert report.equal is True, report.witnesses

    @pytest.mark.parametrize(
        "word",
        ["2143", "3412", "4321", "214365", "215634", "216543", "341265", "351624", "432165"]
        + ["21436587", "21437856", "21563487", "34126587", "43216587"],
    )
    def test_initial_ideals_carry_their_reduced_basis(self, word):
        # verify_degeneration takes L's generators as G_L: the initial forms
        # of a homogeneous reduced basis are the reduced basis of the
        # initial ideal (Sturmfels, Prop. 1.13); both sides at 2n <= 6, the
        # orbit side at 2n = 8
        iota = fpf(word)
        vs = VariableSet.matrix(iota.size)
        weights, tie = column_weights(vs), antidiagonal_order(vs)
        refined = weight_refined_order(vs, weights, tie)
        sources = [orbit_ideal(iota)]
        if iota.size <= 6:
            sources.append(union_schubert_ideal(pair_permutations(iota).perms))
        for source in sources:
            init = initial_ideal(source, weights, tie_break=tie)
            assert buchberger(list(init.generators), refined) == list(init.generators)
            # each initial form is homogeneous in degree and weight, so the
            # antidiagonal order picks its weight-refined lead (check ii)
            for g in init.generators:
                assert max(g.terms, key=refined.key) == max(g.terms, key=tie.key)

    def test_orbit_ideal_generators_are_homogeneous(self):
        words = [iota for n in (1, 2, 3, 4) for iota in enumerate_fpf(n)]
        assert len(words) == 124
        assert all(len({sum(m) for m in g.terms}) == 1 for iota in words for g in orbit_ideal(iota).generators)

    def test_one_buchberger_call_per_degeneration(self, monkeypatch):
        calls = []
        keyed_initial_basis = groebner.keyed_initial_basis

        def counted(G, order, weights, budget=None):
            calls.append(order)
            return keyed_initial_basis(G, order, weights, budget)

        monkeypatch.setattr(symplectic, "keyed_initial_basis", counted)
        assert verify_degeneration(fpf("216543")).equal is True
        assert len(calls) == 1
        assert verify_degeneration(j_bar(3)).equal is True
        assert len(calls) == 1

    @pytest.mark.parametrize("word", [str(i) for i in enumerate_fpf(3)] + BENCH_WORDS_2N8)
    def test_keyed_left_side_matches_the_polynomial_path(self, word):
        # the verifier's G_L, kept in keys from the pfaffians on, against
        # initial_ideal on orbit_ideal and the exponent-weighed oracle
        iota = fpf(word)
        vs = VariableSet.matrix(iota.size)
        weights, tie = column_weights(vs), antidiagonal_order(vs)
        I = orbit_ideal(iota)
        expected = tuple(map(str, initial_ideal(I, weights, tie_break=tie).generators))
        basis = buchberger(list(I.generators), weight_refined_order(vs, weights, tie)) if I.generators else []
        assert verify_degeneration(iota).left_generators == expected
        assert expected == tuple(str(initial_form(g, weights)) for g in basis)

    @pytest.mark.parametrize("word", [str(i) for i in enumerate_fpf(3)] + BENCH_WORDS_2N8)
    def test_initial_basis_matches_the_initial_forms_of_the_reduced_basis(self, word):
        # the old path as the oracle: the whole reduced basis, then each
        # element's initial form, weighed from its exponents; G_L must agree
        # with it, string for string
        iota = fpf(word)
        vs = VariableSet.matrix(iota.size)
        weights = column_weights(vs)
        order = weight_refined_order(vs, weights, antidiagonal_order(vs))
        pfaffians = [symplectic._mjmt_pfaffian(order.units, T, iota.n) for T in orbit_pfaffian_indices(iota)]
        basis = groebner.keyed_basis(pfaffians, order)
        G_L = groebner.keyed_initial_basis(pfaffians, order, weights)
        expected = [str(initial_form(groebner._unpack(terms, order), weights)) for terms in basis]
        assert [str(groebner._unpack(terms, order)) for terms in G_L] == expected
        assert len(G_L) == len(pfaffians) == 0 or any(len(g) < len(b) for g, b in zip(G_L, basis))

    def test_initial_basis_refuses_inhomogeneous_generators(self):
        vs = VariableSet.matrix(2)
        weights = column_weights(vs)
        order = weight_refined_order(vs, weights, antidiagonal_order(vs))
        f = groebner._pack(parse_polynomial(vs, "m[1,1]*m[2,2] - m[1,2]"), order)
        with pytest.raises(ValueError, match="homogeneous"):
            groebner.keyed_initial_basis([f], order, weights)

    def test_meet_matches_the_or_of_every_pair(self):
        # the old rule as the oracle: every generator of A ORed with every
        # antidiagonal term of v, then minimalized; the new one keeps the
        # generators some antidiagonal divides, and some are kept
        kept = 0
        for word in [str(i) for i in enumerate_fpf(3)] + BENCH_WORDS_2N8:
            iota = fpf(word)
            vs = VariableSet.matrix(iota.size)
            common = old = [0]
            for v in pair_permutations(iota).perms:
                gens = [symplectic._antidiagonal(vs, rows, cols) for rows, cols, _ in symplectic._keyed_minors(v, vs.units)]
                kept += sum(any(a & b == b for b in gens) for a in common)
                common = symplectic._meet(common, gens)
                old = symplectic._minimal(a | b for a in old for b in gens)
                assert common == old
        assert kept

    def test_degeneration_never_packs_a_term(self, monkeypatch):
        # the pfaffians are written keyed and G_L's antidiagonal keys are
        # masked from its weight-refined ones: no Polynomial term is keyed
        def refuse(*args):
            raise AssertionError("a term was packed")

        monkeypatch.setattr(groebner, "_pack", refuse)
        for word in ("4321", "216543", "21437856"):
            assert verify_degeneration(fpf(word), DEEP_BUDGET).equal is True

    def test_degeneration_budget_exhaustion_reported(self):
        report = verify_degeneration(fpf("4321"), GBBudget(max_pairs=0))
        assert report.equal is None
        assert report.budget_exhausted

    def test_report_json(self):
        report = verify_degeneration(j_bar(1))
        blob = report.to_json()
        assert blob["equal"] is True
        assert blob["iota"] == [2, 1]


def two_sided(iota, perms):
    """The degeneration check computed on both sides: J, the intersection of
    the Fulton ideals of `perms`, by elimination (union_schubert_ideal), its
    initial ideal, and the reduced bases of both initial ideals compared.
    Returns the report JSON without timings."""
    vs = VariableSet.matrix(iota.size)
    weights, tie = column_weights(vs), antidiagonal_order(vs)
    refined = weight_refined_order(vs, weights, tie)
    L = initial_ideal(orbit_ideal(iota), weights, tie_break=tie, budget=DEEP_BUDGET)
    R = initial_ideal(union_schubert_ideal(perms, DEEP_BUDGET), weights, tie_break=tie, budget=DEEP_BUDGET)
    gl, gr = L.groebner_basis(refined, DEEP_BUDGET), R.groebner_basis(refined, DEEP_BUDGET)
    witnesses = [str(g) for g in gl if not normal_form(g, gr, refined).is_zero()]
    witnesses += [str(g) for g in gr if not normal_form(g, gl, refined).is_zero()]
    return {
        "iota": iota.to_json(),
        "pair_permutations": [p.to_json() for p in perms],
        "left_initial_generators": [str(g) for g in L.generators],
        "right_initial_generators": [str(g) for g in R.generators],
        "equal": gl == gr,
        "witnesses": witnesses,
        "budget_exhausted": None,
    }


def _mutations():
    """(id, iota, perms): each pair permutation of iota dropped in turn, and
    the pair permutations of the next involution of the same size."""
    out = []
    for n in (1, 2, 3):
        items = enumerate_fpf(n)
        for k, iota in enumerate(items):
            perms = pair_permutations(iota).perms
            if len(perms) > 1:
                out += [(f"{iota}-drop-{p}", iota, perms[:i] + perms[i + 1:]) for i, p in enumerate(perms)]
            other = items[(k + 1) % len(items)]
            if other != iota:
                out.append((f"{iota}-as-{other}", iota, pair_permutations(other).perms))
    return out


MUTATIONS = _mutations()


class TestDegenerationCertificate:
    @pytest.mark.parametrize("word", [str(i) for i in enumerate_fpf(3)] + BENCH_WORDS_2N8)
    def test_matches_two_sided_computation(self, word):
        iota = fpf(word)
        blob = verify_degeneration(iota, DEEP_BUDGET).to_json()
        assert set(blob.pop("timings")) == {"left_seconds", "certificate_seconds"}
        assert blob == two_sided(iota, pair_permutations(iota).perms)
        assert blob["equal"] is True

    def test_mutation_count(self):
        assert len(MUTATIONS) == 47
        assert sum("-drop-" in name for name, *_ in MUTATIONS) == 29

    @pytest.mark.parametrize("iota, perms", [m[1:] for m in MUTATIONS], ids=[m[0] for m in MUTATIONS])
    def test_mutation_rejected(self, monkeypatch, iota, perms):
        mutated = PairPermutationSet(iota, perms, length(perms[0]))
        monkeypatch.setattr(symplectic, "pair_permutations", lambda _: mutated)
        report = verify_degeneration(iota, DEEP_BUDGET)
        assert report.equal is False
        assert report.witnesses
        assert report.to_json()["right_initial_generators"] == []
        assert two_sided(iota, perms)["equal"] is False

    def test_witnesses_name_the_failing_check(self, monkeypatch):
        # against 3412's pair permutation 1324: the basis of 4321's initial
        # ideal is not in I_1324 (check i), and the dense orbit's zero ideal
        # misses the antidiagonal of I_1324's one minor (check ii)
        perms = pair_permutations(fpf("3412")).perms
        monkeypatch.setattr(symplectic, "pair_permutations", lambda iota: PairPermutationSet(iota, perms, 1))
        assert verify_degeneration(fpf("4321")).witnesses == (
            "-m[1,1]*m[3,2]+m[1,2]*m[3,1] is not in I_1324",
            "-m[1,1]*m[2,1]*m[3,2]+m[1,1]*m[2,2]*m[3,1] is not in I_1324",
        )
        assert verify_degeneration(j_bar(2)).witnesses == ("m[1,2]*m[2,1] is not in in(L)",)

    def test_a_lead_with_a_square_covers_no_antidiagonal(self, monkeypatch):
        # m[1,2] times 3412's one minor lies in J = I_1324, but its lead
        # m[1,2]^2*m[2,1] does not divide the antidiagonal m[1,2]*m[2,1]
        keyed_initial_basis = groebner.keyed_initial_basis

        def injected(G, order, weights, budget=None):
            g = parse_polynomial(order.vs, "m[1,2]^2*m[2,1] - m[1,1]*m[1,2]*m[2,2]")
            return keyed_initial_basis([groebner._pack(g, order)], order, weights, budget)

        monkeypatch.setattr(symplectic, "keyed_initial_basis", injected)
        report = verify_degeneration(fpf("3412"))
        assert report.witnesses == ("m[1,2]*m[2,1] is not in in(L)",)
        assert report.equal is False

    def test_one_groebner_basis_and_no_elimination(self, monkeypatch):
        calls = []
        keyed_initial_basis = groebner.keyed_initial_basis

        def counted(G, order, weights, budget=None):
            calls.append(order)
            return keyed_initial_basis(G, order, weights, budget)

        def refuse(*args, **kwargs):
            raise AssertionError("elimination reached")

        monkeypatch.setattr(symplectic, "keyed_initial_basis", counted)
        for name in ("ideal_intersection", "union_schubert_ideal"):
            monkeypatch.setattr(symplectic, name, refuse)
        monkeypatch.setattr(groebner, "ideal_intersection", refuse)
        words = [iota for n in (1, 2, 3) for iota in enumerate_fpf(n)]
        for iota in words:
            assert verify_degeneration(iota, DEEP_BUDGET).equal is True
        # one basis per word with a nonzero orbit ideal, none for the dense orbits
        assert len(calls) == sum(not orbit_ideal(iota).is_zero() for iota in words) == len(words) - 3
        assert all(order.name.startswith("weight") for order in calls)

    def test_knutson_miller_holds_for_every_pair_permutation_2n_le_6(self):
        # check (ii) reads in(I_w) off the antidiagonals of w's Fulton minors
        perms = {p for n in (1, 2, 3) for iota in enumerate_fpf(n) for p in pair_permutations(iota).perms}
        assert len(perms) == 37
        assert all(verify_knutson_miller(p) for p in sorted(perms, key=lambda p: p.word))
