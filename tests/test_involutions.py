import itertools
import random

import pytest

from sporbits import involutions
from sporbits.involutions import (
    FpfInvolution,
    NoUniqueMeet,
    InfeasibleBox,
    _rank_sweep,
    _with_boxes,
    basics_decomposition,
    conjugate_by_transposition,
    construct_a_even,
    construct_a_odd,
    covers,
    enumerate_fpf,
    fpf_length,
    glb,
    hasse_diagram,
    in_basic_family,
    involution_of_ranks,
    is_a_even,
    is_a_odd,
    j_bar,
    odd_rank_constraint_holds,
    opposite_leq,
    pair_statistics,
    poset_dot,
    symplectic_diagram,
    symplectic_essential_boxes,
    upper_covers,
    wiring_ascii,
    wiring_parse,
)
from sporbits.permutations import Permutation, essential_boxes, length, rank_matrix


def fpf(text):
    return FpfInvolution.from_any(text)


def per_cell_ranks(size, target):
    """The rank rule cell by cell, as a reference for the sweep: the min of
    a, b, the two step bounds and r + (a-x)+ + (b-y)+ for every box and its
    mirror, rounded down to even on the diagonal."""
    R = [[0] * (size + 1) for _ in range(size + 1)]
    for a, b in itertools.product(range(1, size + 1), repeat=2):
        bound = min(
            [a, b, R[a - 1][b] + 1, R[a][b - 1] + 1]
            + [r + max(a - x, 0) + max(b - y, 0) for i, j, r in target for x, y in ((i, j), (j, i))]
        )
        R[a][b] = bound - bound % 2 if a == b else bound
    return [row[1:] for row in R[1:]]


def glb_by_scan(elements):
    """Reference meet by a double scan: every involution of the size that lies
    below all the elements, then the maximal ones among those."""
    elems = list(elements)
    lower = [k for k in enumerate_fpf(elems[0].n) if all(opposite_leq(k, e) for e in elems)]
    maximal = [k for k in lower if not any(k != m and opposite_leq(k, m) for m in lower)]
    if len(maximal) != 1:
        raise NoUniqueMeet(maximal)
    return maximal[0]


def meet_or_antichain(find, elements):
    """The meet, or the NoUniqueMeet antichain (in order) and message."""
    try:
        return find(elements)
    except NoUniqueMeet as exc:
        return exc.antichain, str(exc)


def word_length(iota):
    return length(iota.permutation())


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            FpfInvolution((1, 2, 4, 3))  # fixed points
        with pytest.raises(ValueError):
            FpfInvolution((2, 3, 1, 4))  # not an involution
        with pytest.raises(ValueError):
            FpfInvolution((2, 1, 3))  # odd size

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_is_its_permutation(self, n):
        for iota in enumerate_fpf(n):
            p = iota.permutation()
            assert isinstance(iota, Permutation)
            assert length(iota) == length(p)
            assert rank_matrix(iota) == rank_matrix(p)
            assert essential_boxes(iota) == essential_boxes(p)

    def test_from_any(self):
        iota = fpf("2,1,4,3")
        assert iota == fpf("2143") == FpfInvolution.from_any(Permutation((2, 1, 4, 3)))
        assert FpfInvolution.from_any(iota) is iota
        with pytest.raises(ValueError, match="not a permutation of 1..4"):
            fpf("2144")

    def test_arcs(self):
        assert fpf("43217856").arcs == ((1, 4), (2, 3), (5, 7), (6, 8))

    def test_from_arcs_roundtrip(self):
        for iota in enumerate_fpf(3):
            assert FpfInvolution.from_arcs(iota.arcs) == iota


class TestJbarAndDirectSum:
    def test_j_bar(self):
        assert j_bar(1).word == (2, 1)
        assert j_bar(2).word == (2, 1, 4, 3)
        assert j_bar(4).word == (2, 1, 4, 3, 6, 5, 8, 7)
        assert fpf_length(j_bar(5)) == 5


class TestPairStatistics:
    def test_mixed_example(self):
        stats = pair_statistics(fpf("532614"))
        assert (stats.c, stats.r) == (1, 1)

    def test_j_bar_has_none(self):
        for n in (1, 2, 3, 4):
            stats = pair_statistics(j_bar(n))
            assert (stats.c, stats.r) == (0, 0)
            assert stats.d == n * (n - 1) // 2

    def test_double_crossing(self):
        stats = pair_statistics(fpf("351624"))
        assert (stats.c, stats.r) == (2, 0)

    def test_counts_partition_pairs(self):
        for iota in enumerate_fpf(4):
            s = pair_statistics(iota)
            assert s.c + s.r + s.d == 4 * 3 // 2


class TestLengthFormula:
    @pytest.mark.parametrize("word,expected", [("216543", 7), ("532614", 9)])
    def test_examples(self, word, expected):
        assert fpf_length(fpf(word)) == expected
        assert word_length(fpf(word)) == expected

    def test_formula_matches_inversions_2n_le_8(self):
        for n in range(1, 5):
            for iota in enumerate_fpf(n):
                assert fpf_length(iota) == word_length(iota)


class TestCovers:
    def test_cover_example(self):
        assert covers(fpf("341265"), fpf("214365"))
        assert fpf("214365") in upper_covers(fpf("341265"))

    def test_4321_covered_by_3412(self):
        assert covers(fpf("4321"), fpf("3412"))

    def test_j_bar_is_maximal(self):
        for n in (2, 3):
            assert upper_covers(j_bar(n)) == frozenset()

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            covers(j_bar(2), j_bar(3))

    def test_cover_consistency_2n_le_6(self):
        # covers holds iff the length gap is 2 and nothing sits strictly between
        for n in (2, 3):
            items = enumerate_fpf(n)
            for iota, kappa in itertools.product(items, items):
                strictly_above = (
                    iota != kappa
                    and opposite_leq(iota, kappa)
                    and word_length(iota) - word_length(kappa) == 2
                )
                no_between = not any(
                    mid != iota
                    and mid != kappa
                    and opposite_leq(iota, mid)
                    and opposite_leq(mid, kappa)
                    for mid in items
                )
                assert covers(iota, kappa) == (strictly_above and no_between)

    def test_covering_switch_shifts_statistics_by_one_step(self):
        # a downward cover adds 2 to the length, so by the length formula the
        # crossing/nesting counts satisfy delta_c + 2*delta_r == 1
        for n in (2, 3):
            for iota in enumerate_fpf(n):
                after = pair_statistics(iota)
                for kappa in upper_covers(iota):
                    before = pair_statistics(kappa)
                    assert (after.c - before.c) + 2 * (after.r - before.r) == 1


class TestEnumeration:
    def test_counts(self):
        assert [str(i) for i in enumerate_fpf(1)] == ["21"]
        assert {str(i) for i in enumerate_fpf(2)} == {"2143", "3412", "4321"}
        assert len(enumerate_fpf(3)) == 15
        assert len(enumerate_fpf(4)) == 105

    def test_no_duplicates(self):
        items = enumerate_fpf(4)
        assert len(set(items)) == len(items)

    def test_bound(self):
        for n in (-1, 0, 7):
            with pytest.raises(ValueError, match=r"outside the enumeration bound 1\.\.6"):
                enumerate_fpf(n)
        assert len(enumerate_fpf(6)) == 10395


class TestOppositeOrderAndGlb:
    def test_glb_of_two_basics(self):
        assert glb([fpf("341265"), fpf("215634")]) == fpf("351624")

    def test_no_unique_meet(self):
        with pytest.raises(NoUniqueMeet) as exc:
            glb([fpf("215634"), fpf("432165")])
        assert set(exc.value.antichain) == {fpf("456123"), fpf("532614")}
        assert "456123, 532614" in str(exc.value)

    def test_singleton(self):
        for iota in enumerate_fpf(2):
            assert glb([iota]) == iota

    def test_chain_2n4(self):
        assert opposite_leq(fpf("4321"), fpf("3412"))
        assert opposite_leq(fpf("3412"), fpf("2143"))
        assert glb([fpf("2143"), fpf("3412")]) == fpf("3412")

    def test_empty_set_convention(self):
        assert glb([], n=3) == j_bar(3)
        with pytest.raises(ValueError):
            glb([])

    def test_bottom_element_meets(self):
        bottom = max(enumerate_fpf(3), key=word_length)  # the reverse word
        for iota in enumerate_fpf(3):
            assert glb([iota, bottom]) == bottom

    def test_search_matches_scan_all_pairs_2n_le_6(self):
        for n in (1, 2, 3):
            for pair in itertools.combinations_with_replacement(enumerate_fpf(n), 2):
                assert meet_or_antichain(glb, pair) == meet_or_antichain(glb_by_scan, pair)

    def test_search_matches_scan_on_decompositions_2n8(self):
        for iota in enumerate_fpf(4):
            parts = sorted(basics_decomposition(iota), key=lambda k: k.word)
            if parts:
                assert glb(parts) == glb_by_scan(parts) == iota

    def test_search_matches_scan_sampled_2n8(self):
        rng = random.Random(10)
        items = enumerate_fpf(4)
        samples = [rng.sample(items, 2) for _ in range(150)] + [rng.sample(items, 3) for _ in range(100)]
        outcomes = [meet_or_antichain(glb_by_scan, elems) for elems in samples]
        assert [meet_or_antichain(glb, elems) for elems in samples] == outcomes
        # both kinds of answer occur, so the antichain order is checked too
        assert any(isinstance(o, FpfInvolution) for o in outcomes)
        assert any(isinstance(o, tuple) and len(o[0]) > 1 for o in outcomes)

    def test_half_size_over_enumeration_bound(self):
        # the bound holds only where glb lists involutions: off the rank rule
        # (341265 and 215634 plus a j_bar(3) tail) at n = 6 the listing finds
        # the meet, with a j_bar(4) tail at n = 7 it raises, while a meet the
        # rule decides at n = 7 needs no listing
        pair = [fpf("3,4,1,2,6,5,8,7,10,9,12,11"), fpf("2,1,5,6,3,4,8,7,10,9,12,11")]
        assert glb(pair) == fpf("3,5,1,6,2,4,8,7,10,9,12,11")
        pair = [FpfInvolution(p.word + (14, 13)) for p in pair]
        with pytest.raises(ValueError, match=r"^n=7 is outside the enumeration bound 1\.\.6$"):
            glb(pair)
        rainbow = fpf("14,13,12,11,10,9,8,7,6,5,4,3,2,1")
        assert glb([rainbow]) == rainbow

    def test_rule_decides_every_decomposition_2n_le_12(self, monkeypatch):
        # the meet of a basic decomposition is read off the rank rule alone:
        # no involution is listed
        cases = [
            (iota, sorted(basics_decomposition(iota), key=lambda k: k.word))
            for n in (1, 2, 3, 4, 5, 6)
            for iota in enumerate_fpf(n)
        ]

        def no_scan(*args, **kwargs):
            raise AssertionError("glb listed the involutions")

        monkeypatch.setattr(involutions, "enumerate_fpf", no_scan)
        for iota, parts in cases:
            assert glb(parts, n=iota.n) == iota

    def test_meet_strictly_under_the_ceiling(self):
        # the entrywise minimum of the two rank matrices belongs to no
        # involution, so the meet comes from the scan branch
        pair = [fpf("341265"), fpf("215634")]
        ceiling = [tuple(map(min, zip(*rows))) for rows in zip(*(rank_matrix(e) for e in pair))]
        assert involution_of_ranks(ceiling) is None
        assert glb(pair) == fpf("351624")


class TestSymplecticBoxes:
    def test_216543(self):
        iota = fpf("216543")
        assert symplectic_diagram(iota) == frozenset({(3, 4), (3, 5)})
        assert symplectic_essential_boxes(iota) == frozenset({(3, 5, 2)})

    def test_21573846(self):
        boxes = symplectic_essential_boxes(fpf("21573846"))
        assert boxes == frozenset({(3, 4, 2), (4, 6, 3)})

    def test_j_bar_empty(self):
        for n in (1, 2, 3, 4):
            assert symplectic_essential_boxes(j_bar(n)) == frozenset()

    def test_row_col_strictly_upper(self):
        for iota in enumerate_fpf(3):
            for (i, j, _) in symplectic_essential_boxes(iota):
                assert i < j


class TestOddRankConstraint:
    def test_cover_examples(self):
        assert odd_rank_constraint_holds(fpf("21573846"))
        assert odd_rank_constraint_holds(fpf("361542"))

    def test_exhaustive_2n_le_8(self):
        for n in range(1, 5):
            assert all(odd_rank_constraint_holds(i) for i in enumerate_fpf(n))


class TestBasicFamilies:
    def test_membership(self):
        assert is_a_even(fpf("216543"))
        assert is_a_odd(fpf("21573846"))
        assert is_a_odd(fpf("351624"))
        assert not in_basic_family(j_bar(3))

    def test_construct_even_example(self):
        assert construct_a_even(3, 3, 5, 2) == fpf("216543")

    def test_construct_even_corner_box(self):
        # the iota_e' family instance 73254816 has the single box (1,6) rank 0
        iota = fpf("73254816")
        assert symplectic_essential_boxes(iota) == frozenset({(1, 6, 0)})
        assert construct_a_even(4, 1, 6, 0) == iota

    def test_construct_odd_example(self):
        iota = fpf("361542")
        assert symplectic_essential_boxes(iota) == frozenset({(1, 2, 0), (2, 5, 1)})
        assert construct_a_odd(3, 2, 5, 1) == iota

    def test_infeasible_requests(self):
        with pytest.raises(InfeasibleBox):
            construct_a_even(2, 1, 2, 1)  # odd rank in the even family
        with pytest.raises(InfeasibleBox):
            construct_a_odd(3, 2, 3, 1)  # odd rank on the superdiagonal
        with pytest.raises(InfeasibleBox):
            construct_a_even(2, 3, 2, 0)  # not upper triangular

    def test_rank_rule_matches_scan_2n_le_10(self):
        # the scan over every involution that the rank rule replaced is the
        # oracle: for every single-box and odd-family target with indices in
        # 0..2n+1 and rank in -1..2n, both give the same involution or none
        realizable = 0
        for n in range(1, 6):
            size = 2 * n
            scan = {}
            for k in enumerate_fpf(n):
                scan.setdefault(symplectic_essential_boxes(k), []).append(k)
            for i, j, r in itertools.product(range(size + 2), range(size + 2), range(-1, size + 1)):
                for target in (
                    frozenset({(i, j, r)}),
                    frozenset({(i - 1, i, r - 1), (i, j, r)}),
                ):
                    matches = scan.get(target, [])
                    assert len(matches) <= 1, (target, matches)
                    try:
                        built = _with_boxes(n, target)
                    except InfeasibleBox:
                        built = None
                    assert built == (matches[0] if matches else None), target
                    realizable += built is not None
        assert realizable == 100

    def test_sweep_matches_per_cell_rule_2n_le_10(self):
        # every in-grid single-box and odd-family target, realizable or not
        checked = 0
        for size in range(2, 11, 2):
            for i, j in itertools.combinations(range(1, size + 1), 2):
                for r in range(size + 1):
                    targets = [frozenset({(i, j, r)})]
                    if i > 1 and r > 0:
                        targets.append(frozenset({(i - 1, i, r - 1), (i, j, r)}))
                    for target in targets:
                        assert _rank_sweep(size, target) == per_cell_ranks(size, target), target
                        checked += 1
        assert checked == 1485

    def test_construction_unambiguous_2n_le_8(self):
        # essential sets of basic elements pin down a unique involution
        seen = {}
        for n in range(1, 5):
            for iota in enumerate_fpf(n):
                if in_basic_family(iota):
                    key = (n, symplectic_essential_boxes(iota))
                    assert key not in seen, (iota, seen[key])
                    seen[key] = iota


class TestBasicsDecomposition:
    def test_j_bar_empty(self):
        for n in (1, 2, 3):
            assert basics_decomposition(j_bar(n)) == frozenset()
            assert glb(basics_decomposition(j_bar(n)), n=n) == j_bar(n)

    def test_self_basic(self):
        assert basics_decomposition(fpf("216543")) == frozenset({fpf("216543")})

    def test_351624(self):
        parts = basics_decomposition(fpf("351624"))
        assert len(parts) == 2
        assert all(in_basic_family(p) for p in parts)
        assert glb(parts) == fpf("351624")

    def test_every_element_decomposes_2n_le_6(self):
        for n in (1, 2, 3):
            for iota in enumerate_fpf(n):
                parts = basics_decomposition(iota)
                assert all(in_basic_family(p) for p in parts)
                assert glb(parts, n=n) == iota

    def test_non_minimality_of_family(self):
        # 351624 is in the family yet is already a meet of two others
        assert in_basic_family(fpf("351624"))
        assert glb([fpf("341265"), fpf("215634")]) == fpf("351624")


class TestPosetPlumbing:
    def test_hasse_matches_upper_covers(self):
        edges = hasse_diagram(2)
        expected = set()
        for iota in enumerate_fpf(2):
            for upper in upper_covers(iota):
                expected.add((iota.word, upper.word))
        assert set(edges) == expected

    def test_dot_output(self):
        dot = poset_dot(2)
        assert dot.startswith("digraph")
        assert '"4321" -> "3412"' in dot


class TestWiring:
    def test_roundtrip_2n_le_6(self):
        for n in (1, 2, 3):
            for iota in enumerate_fpf(n):
                assert wiring_parse(wiring_ascii(iota)) == iota

    def test_deterministic(self):
        iota = fpf("43217856")
        assert wiring_ascii(iota) == wiring_ascii(fpf("43217856"))

    def test_side_by_side(self):
        art = wiring_ascii(fpf("2143"))
        lines = art.splitlines()
        assert lines[0] == ".-. .-."
        assert lines[-1] == "word: 2,1,4,3"

    def test_nested_and_crossing(self):
        art = wiring_ascii(fpf("43217856"))
        # the nested pair {1,4},{2,3} needs two height levels
        assert len(art.splitlines()) >= 4
