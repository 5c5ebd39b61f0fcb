"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single PASS/FAIL line (run with -s to see them inline)
and enforces its runtime cap with exact, zero-tolerance comparisons.
"""

import itertools
import random
import time

import pytest

from sporbits import checks, groebner, symplectic
from sporbits.groebner import DEEP_BUDGET, GBBudget, _unpack, is_groebner_basis
from sporbits.involutions import (
    FpfInvolution,
    enumerate_fpf,
    glb,
    in_basic_family,
    j_bar,
)
from sporbits.pairperms import conjugation_check, pair_permutations
from sporbits.permutations import Permutation, length
from sporbits.symplectic import (
    build_mjmt,
    classify_orbit,
    determinant,
    mat_identity,
    pfaffian,
    verify_degeneration,
    verify_knutson_miller,
)


def report(number: int, title: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {title}")
    assert ok, f"criterion {number} failed: {title}"


def fpf(text):
    return FpfInvolution.from_any(text)


@pytest.fixture
def reduced_bases(monkeypatch):
    """Records every reduced basis a test computes, and every reduced basis
    of an initial ideal, G_L's among them, with the order, so the test can
    certify each one: the keyed entry points are patched where groebner
    calls them (buchberger, initial_ideal) and where the verifier does."""
    seen = {}
    keyed_basis, keyed_initial_basis = groebner.keyed_basis, groebner.keyed_initial_basis

    def record(basis, order):
        seen[tuple(_unpack(terms, order) for terms in basis), order] = None
        return basis

    def recorded_keyed_basis(G, order, budget=None):
        return record(keyed_basis(G, order, budget), order)

    def recorded_initial_basis(G, order, weights, budget=None):
        return record(keyed_initial_basis(G, order, weights, budget), order)

    monkeypatch.setattr(groebner, "keyed_basis", recorded_keyed_basis)
    for module in (groebner, symplectic):
        monkeypatch.setattr(module, "keyed_initial_basis", recorded_initial_basis)
    return seen


def certified(bases) -> bool:
    """Every recorded basis passes the is_groebner_basis certificate."""
    return bool(bases) and all(is_groebner_basis(list(basis), order, DEEP_BUDGET) for basis, order in bases)


def test_criterion_1_length_formula():
    start = time.monotonic()
    ok = all(checks.length_formula(enumerate_fpf(n))[0] for n in range(1, 6))
    elapsed = time.monotonic() - start
    report(1, f"length formula n+2c+4r on all 2n<=10 ({elapsed:.1f}s)", ok and elapsed < 10)


def test_criterion_2_basic_decomposition():
    start = time.monotonic()
    ok = all(checks.basic_decomposition(enumerate_fpf(n))[0] for n in range(1, 5))
    elapsed = time.monotonic() - start
    report(2, f"basic-element decomposition on all 2n<=8 ({elapsed:.1f}s)", ok and elapsed < 120)


def test_criterion_3_non_minimality_example():
    ok = (
        in_basic_family(fpf("351624"))
        and glb([fpf("341265"), fpf("215634")]) == fpf("351624")
    )
    report(3, "351624 is basic yet a glb of two others", ok)


def test_criterion_4_pair_permutations():
    start = time.monotonic()
    result = pair_permutations(fpf("4321"))
    ok = {w.word for w in result.perms} == {(1, 3, 4, 2), (3, 1, 2, 4)}
    for n in (1, 2, 3):
        ok = ok and checks.pair_permutation_length(enumerate_fpf(n))[0]
        for iota in enumerate_fpf(n):
            pp = pair_permutations(iota)
            # exhaustive minimality: nothing shorter conjugates j_bar to iota
            shorter_exists = any(
                length(w) < pp.common_length and conjugation_check(w, iota)
                for word in itertools.permutations(range(1, 2 * n + 1))
                for w in [Permutation(word)]
            )
            if shorter_exists:
                ok = False
    elapsed = time.monotonic() - start
    report(4, f"pair permutations exact and minimal, 2n<=6 ({elapsed:.1f}s)", ok and elapsed < 60)


def test_criterion_5_odd_rank_constraint():
    ok = all(checks.odd_rank_constraint(enumerate_fpf(n))[0] for n in range(1, 5))
    report(5, "odd-rank constraint on all 2n<=8", ok)


def test_criterion_6_knutson_miller():
    start = time.monotonic()
    words = [w for size in (4, 5) for w in itertools.permutations(range(1, size + 1))]
    ok = all(verify_knutson_miller(Permutation(w)) for w in words)
    elapsed = time.monotonic() - start
    report(6, f"Fulton generators Groebner for all of S_4 and S_5 ({elapsed:.1f}s)", ok and elapsed < 120)


def test_criterion_7_degeneration_2n4(reduced_bases):
    start = time.monotonic()
    ok = (
        checks.degeneration(fpf("4321"), GBBudget()) == (True, "")
        and checks.degeneration(j_bar(2), GBBudget()) == (True, "")
        and verify_degeneration(j_bar(2)).left_generators == ()
    )
    ok = ok and certified(reduced_bases)
    elapsed = time.monotonic() - start
    report(
        7,
        f"degeneration at 2n=4: 4321 and dense orbit, {len(reduced_bases)} bases certified ({elapsed:.1f}s)",
        ok and elapsed < 600,
    )


def test_criterion_8_degeneration_2n6_deep(reduced_bases):
    start = time.monotonic()
    ok = True
    outcomes = []
    for word in ("216543", "351624"):
        rep = verify_degeneration(fpf(word), DEEP_BUDGET)
        outcomes.append(rep.equal if rep.equal is not None else "budget")
        # inequality at completed budget is the only failing outcome
        if rep.equal is False:
            ok = False
    ok = ok and certified(reduced_bases)
    elapsed = time.monotonic() - start
    report(8, f"degeneration at 2n=6 (deep): {outcomes}, {len(reduced_bases)} bases certified ({elapsed:.1f}s)", ok)


def test_criterion_9_pfaffian_squares():
    ok = True
    for n in (1, 2, 3):
        A = build_mjmt(n)
        pf = pfaffian(A)
        if pf * pf != determinant(A):
            ok = False
    report(9, "pf(A)^2 = det(A) symbolically at sizes 2, 4, 6", ok)


def test_criterion_10_orbit_classification():
    ok = all(classify_orbit(mat_identity(2 * n)) == j_bar(n) for n in (1, 2, 3))
    ok = ok and checks.classification_invariance(100, random.Random(2024))[0]
    report(10, "classification: identity and 100 random group actions", ok)
