import itertools

import pytest
from hypothesis import given, strategies as st

from sporbits.permutations import (
    Permutation,
    bruhat_leq,
    essential_boxes,
    length,
    rank_matrix,
    rothe_diagram,
)


def brute_rank(word, i, j):
    return sum(1 for k in range(i) if word[k] <= j)


def brute_length(word):
    return sum(
        1 for a, b in itertools.combinations(range(len(word)), 2) if word[a] > word[b]
    )


def bruhat_covers(p, q):
    """The covering relation, the ground truth for bruhat_leq's direction:
    q covers p when q = p * t_ij with length(q) = length(p) + 1."""
    diff = [k for k in range(p.size) if p.word[k] != q.word[k]]
    if len(diff) != 2:
        return False
    i, j = diff
    if p.word[i] != q.word[j] or p.word[j] != q.word[i]:
        return False
    return length(q) == length(p) + 1


perm_words = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1))
        with pytest.raises(ValueError):
            Permutation((2, 3))

    @given(perm_words)
    def test_inverse_involutive(self, word):
        p = Permutation(tuple(word))
        assert p.inverse().inverse() == p
        assert [p(p.inverse()(i)) for i in range(1, p.size + 1)] == list(range(1, p.size + 1))

    def test_sizes_zero_and_one(self):
        p0 = Permutation(())
        p1 = Permutation((1,))
        assert length(p0) == length(p1) == 0
        assert rothe_diagram(p1) == frozenset()
        assert essential_boxes(p0) == frozenset()


class TestFromAny:
    def test_comma_list(self):
        p = Permutation.from_any("10,9,8,7,6,5,4,3,2,1")
        assert p.word == tuple(range(10, 0, -1))
        assert Permutation.from_any(str(p)) == p

    def test_digit_string_and_words(self):
        p = Permutation.from_any("132")
        assert p == Permutation.from_any("1,3,2") == Permutation.from_any([1, 3, 2])
        assert Permutation.from_any(p) is p


class TestRankMatrix:
    def test_rank_matrix_13425(self):
        p = Permutation.from_any("13425")
        assert rank_matrix(p) == (
            (1, 1, 1, 1, 1),
            (1, 1, 2, 2, 2),
            (1, 1, 2, 3, 3),
            (1, 2, 3, 4, 4),
            (1, 2, 3, 4, 5),
        )

    def test_identity_2(self):
        assert rank_matrix(Permutation.identity(2)) == ((1, 1), (1, 2))

    def test_2143_matches_counting_formula(self):
        p = Permutation.from_any("2143")
        rm = rank_matrix(p)
        assert rm == ((0, 1, 1, 1), (1, 2, 2, 2), (1, 2, 2, 3), (1, 2, 3, 4))
        for i in range(1, 5):
            for j in range(1, 5):
                assert rm[i - 1][j - 1] == brute_rank(p.word, i, j)

    @given(perm_words)
    def test_local_step_property(self, word):
        rm = rank_matrix(Permutation(tuple(word)))
        n = len(word)
        for i in range(1, n):
            for j in range(n):
                assert rm[i][j] - rm[i - 1][j] in (0, 1)
        assert rm[n - 1][n - 1] == n


class TestLength:
    @pytest.mark.parametrize(
        "word,expected",
        [("2143", 2), ("4321", 6), ("532614", 9)],
    )
    def test_examples(self, word, expected):
        p = Permutation.from_any(word)
        assert length(p) == expected
        assert length(p) == brute_length(p.word)

    def test_extremes(self):
        assert length(Permutation.identity(5)) == 0
        assert length(Permutation((5, 4, 3, 2, 1))) == 10


class TestDiagrams:
    def test_2143(self):
        p = Permutation.from_any("2143")
        assert rothe_diagram(p) == frozenset({(1, 1), (3, 3)})
        assert essential_boxes(p) == frozenset({(1, 1, 0), (3, 3, 2)})

    def test_15432(self):
        p = Permutation.from_any("15432")
        assert essential_boxes(p) == frozenset({(2, 4, 1), (3, 3, 1), (4, 2, 1)})

    def test_identity(self):
        p = Permutation.identity(4)
        assert rothe_diagram(p) == frozenset()
        assert essential_boxes(p) == frozenset()

    def test_rothe_diagram_builds_no_permutation(self, monkeypatch):
        # p^-1 is read as a plain word: no validated Permutation is built
        p = Permutation.from_any("351624")
        built = []
        post_init = Permutation.__post_init__
        monkeypatch.setattr(Permutation, "__post_init__", lambda self: built.append(self) or post_init(self))
        assert rothe_diagram(p) == frozenset({(1, 1), (1, 2), (2, 1), (2, 2), (2, 4), (4, 2), (4, 4)})
        assert built == []

    def test_rothe_condition(self):
        for p in map(Permutation, itertools.permutations(range(1, 5))):
            inv = p.inverse()
            for (i, j) in rothe_diagram(p):
                assert j < p(i) and inv(j) > i

    def test_essential_boxes_determine_permutation_s5(self):
        # the essential rank conditions of p cut out {q : q >= p}, with p the
        # unique minimum, so the boxes reconstruct p
        all_s5 = list(map(Permutation, itertools.permutations(range(1, 6))))
        for p in all_s5:
            boxes = essential_boxes(p)
            compatible = [
                q
                for q in all_s5
                if all(rank_matrix(q)[i - 1][j - 1] <= r for (i, j, r) in boxes)
            ]
            minima = [
                q
                for q in compatible
                if all(bruhat_leq(q, other) for other in compatible)
            ]
            assert minima == [p]


class TestBruhat:
    def test_cover_examples(self):
        id4 = Permutation.identity(4)
        assert bruhat_leq(id4, Permutation.from_any("2134"))
        assert bruhat_covers(id4, Permutation.from_any("2134"))
        assert not bruhat_covers(id4, Permutation.from_any("3214"))

    def test_reflexive_on_s4(self):
        for p in map(Permutation, itertools.permutations(range(1, 5))):
            assert bruhat_leq(p, p)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            bruhat_leq(Permutation.identity(3), Permutation.identity(4))

    def test_rank_criterion_matches_cover_closure_s4(self):
        # transitive closure of the covering relation, built independently
        perms = list(map(Permutation, itertools.permutations(range(1, 5))))
        index = {p: k for k, p in enumerate(perms)}
        leq = [[p == q for q in perms] for p in perms]
        for p in perms:
            for q in perms:
                if bruhat_covers(p, q):
                    leq[index[p]][index[q]] = True
        for _ in range(len(perms)):
            changed = False
            for a in range(len(perms)):
                for b in range(len(perms)):
                    if not leq[a][b] and any(
                        leq[a][c] and leq[c][b] for c in range(len(perms))
                    ):
                        leq[a][b] = True
                        changed = True
            if not changed:
                break
        for a, p in enumerate(perms):
            for b, q in enumerate(perms):
                assert bruhat_leq(p, q) == leq[a][b]

    def test_saturated_chains_reach_identity(self):
        # every non-identity element has a lower cover, so chains of covers
        # from the identity realize the length
        for n in (3, 4, 5, 6):
            for p in map(Permutation, itertools.permutations(range(1, n + 1))):
                steps = 0
                current = p
                while current != Permutation.identity(n):
                    found = None
                    for i, j in itertools.combinations(range(1, n + 1), 2):
                        w = list(current.word)
                        w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
                        q = Permutation(tuple(w))
                        if length(q) == length(current) - 1 and bruhat_covers(q, current):
                            found = q
                            break
                    assert found is not None
                    current = found
                    steps += 1
                assert steps == length(p)
