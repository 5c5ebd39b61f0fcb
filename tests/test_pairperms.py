import itertools
import random

import pytest

from sporbits import pairperms
from sporbits.involutions import FpfInvolution, enumerate_fpf, j_bar, pair_statistics
from sporbits.pairperms import PairPermutationSet, conjugation_check, pair_permutations
from sporbits.permutations import Permutation, length


def fpf(text):
    return FpfInvolution.from_any(text)


def brute_pair_permutations(iota):
    """Oracle: scan all of S_2n for the minimal-length conjugators, no pruning."""
    n2 = len(iota.word)
    hits = {}
    for word in itertools.permutations(range(1, n2 + 1)):
        w = Permutation(word)
        if conjugation_check(w, iota):
            hits.setdefault(length(w), set()).add(word)
    best = min(hits)
    return best, hits[best]


def block_order_scan(iota):
    """Oracle: the shortest of the n! block orders sending each arc (a<b) to a
    block of jbar, a -> 2k-1 and b -> 2k."""
    candidates = {}
    for blocks in itertools.permutations(range(1, iota.n + 1)):
        word = [0] * iota.size
        for (a, b), k in zip(iota.arcs, blocks):
            word[a - 1], word[b - 1] = 2 * k - 1, 2 * k
        candidates.setdefault(length(Permutation(tuple(word))), set()).add(tuple(word))
    best = min(candidates)
    return best, candidates[best]


class TestConjugationCheck:
    def test_j_bar_identity(self):
        for n in (1, 2, 3):
            assert conjugation_check(Permutation.identity(2 * n), j_bar(n))

    def test_known_witnesses_for_4321(self):
        iota = fpf("4321")
        assert conjugation_check(Permutation((1, 3, 4, 2)), iota)
        assert conjugation_check(Permutation((3, 1, 2, 4)), iota)
        assert not conjugation_check(Permutation((1, 2, 3, 4)), iota)

    def test_any_column_permutation_of_arcs_works(self):
        # sending wire endpoints onto the arcs of j_bar always conjugates back
        iota = fpf("3412")
        w = Permutation((1, 3, 2, 4))
        assert conjugation_check(w, iota)


    def test_pairing_rule_matches_composition_at_2n6(self):
        # jbar(w(i)) = w(iota(i)) against the words of w^-1 o jbar o w, for
        # every w in S_6 and all 15 involutions
        items = enumerate_fpf(3)
        assert len(items) == 15
        for word in itertools.permutations(range(1, 7)):
            w = Permutation(word)
            conjugate = w.inverse().compose(j_bar(3).compose(w)).word
            for iota in items:
                assert conjugation_check(w, iota) == (conjugate == iota.word)

    def test_size_mismatch_refused(self):
        with pytest.raises(ValueError, match="size mismatch"):
            conjugation_check(Permutation.identity(6), fpf("4321"))


class TestPairPermutations:
    def test_rainbow_2n4(self):
        result = pair_permutations(fpf("4321"))
        assert {p.word for p in result.perms} == {(1, 3, 4, 2), (3, 1, 2, 4)}
        assert result.common_length == 2

    def test_j_bar_is_trivial(self):
        for n in (1, 2, 3):
            result = pair_permutations(j_bar(n))
            assert {p.word for p in result.perms} == {tuple(range(1, 2 * n + 1))}
            assert result.common_length == 0

    def test_length_equals_c_plus_2r(self):
        for n in (1, 2, 3):
            for iota in enumerate_fpf(n):
                stats = pair_statistics(iota)
                result = pair_permutations(iota)
                assert result.common_length == stats.c + 2 * stats.r
                for w in result.perms:
                    assert length(w) == result.common_length
                    assert conjugation_check(w, iota)

    def test_exhaustive_minimality_2n_le_6(self):
        for n in (1, 2, 3):
            for iota in enumerate_fpf(n):
                best, words = brute_pair_permutations(iota)
                result = pair_permutations(iota)
                assert result.common_length == best
                assert {p.word for p in result.perms} == words

    def test_216543(self):
        result = pair_permutations(fpf("216543"))
        assert result.common_length == 2
        assert {p.word for p in result.perms} == {
            (1, 2, 3, 5, 6, 4),
            (1, 2, 5, 3, 4, 6),
        }

    def test_brute_force_oracle_2n8(self):
        for word in ("43216587", "21563487", "87654321", "56781234", "35172846"):
            iota = fpf(word)
            best, words = brute_pair_permutations(iota)
            result = pair_permutations(iota)
            assert result.common_length == best
            assert {p.word for p in result.perms} == words

    @pytest.mark.parametrize(
        "items",
        [
            pytest.param(
                lambda: [iota for n in (1, 2, 3, 4, 5) for iota in enumerate_fpf(n)], id="2n<=10-all"
            ),
            pytest.param(
                lambda: [
                    fpf("12,11,10,9,8,7,6,5,4,3,2,1"),
                    fpf("7,8,9,10,11,12,1,2,3,4,5,6"),
                    fpf("4,3,2,1,9,11,12,10,5,8,6,7"),
                ]
                + random.Random(16).sample(enumerate_fpf(6), 47),
                id="2n12-sample",
            ),
        ],
    )
    def test_linear_extensions_equal_block_order_scan(self, items):
        for iota in items():
            best, words = block_order_scan(iota)
            stats = pair_statistics(iota)
            result = pair_permutations(iota)
            assert best == stats.c + 2 * stats.r
            assert result.common_length == best
            assert [p.word for p in result.perms] == sorted(words)
            assert all(conjugation_check(w, iota) for w in result.perms)

    def test_one_length_call_per_involution(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pairperms, "length", lambda w: calls.append(w) or length(w))
        result = pair_permutations(fpf("12,11,10,9,8,7,6,5,4,3,2,1"))
        assert calls == [result.perms[0]]

    def test_search_bound(self):
        pair_permutations(j_bar(6))
        with pytest.raises(ValueError):
            pair_permutations(j_bar(7))


class TestSerialization:
    def test_to_json_roundtrips_words(self):
        result = pair_permutations(fpf("4321"))
        blob = result.to_json()
        assert isinstance(blob, dict)
        assert blob["iota"] == [4, 3, 2, 1]
        assert blob["length"] == 2
        assert sorted(blob["pair_permutations"]) == [[1, 3, 4, 2], [3, 1, 2, 4]]
        assert isinstance(result, PairPermutationSet)
