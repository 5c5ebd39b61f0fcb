"""The paper's small-rank results as checks, each written once.

Each check returns `(ok, detail)`, where `detail` names the first involution
that fails, or the budget that ran out, and is empty when the check holds;
`ok` is None, never False, when the budget ran out.
`verify-all` runs every check of `PER_SIZE_CHECKS` on all involutions at
each half-size up to its `--n`, which the enumeration bound holds to n <= 6
(all 10,395 involutions at 2n = 12); the acceptance tests call them at
their own sizes.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from sporbits import involutions, symplectic
from sporbits.groebner import GBBudget
from sporbits.involutions import FpfInvolution
from sporbits.pairperms import conjugation_check, pair_permutations
from sporbits.permutations import length

Result = tuple[bool | None, str]


def _first_failure(
    items: Sequence[FpfInvolution], holds: Callable[[FpfInvolution], bool]
) -> Result:
    bad = next((iota for iota in items if not holds(iota)), None)
    return bad is None, "" if bad is None else str(bad)


def length_formula(items: Sequence[FpfInvolution]) -> Result:
    """Every involution has length n + 2c + 4r."""
    return _first_failure(items, lambda iota: involutions.fpf_length(iota) == length(iota))


def odd_rank_constraint(items: Sequence[FpfInvolution]) -> Result:
    """Every involution satisfies `odd_rank_constraint_holds`."""
    return _first_failure(items, involutions.odd_rank_constraint_holds)


def basic_decomposition(items: Sequence[FpfInvolution]) -> Result:
    """Every involution splits into basic elements whose meet gives it back."""

    def holds(iota: FpfInvolution) -> bool:
        parts = involutions.basics_decomposition(iota)
        if not all(map(involutions.in_basic_family, parts)):
            return False
        return involutions.glb(parts, n=iota.n) == iota

    return _first_failure(items, holds)


def pair_permutation_length(items: Sequence[FpfInvolution]) -> Result:
    """Every pair permutation of iota has length c + 2r and conjugates j_bar to iota."""

    def holds(iota: FpfInvolution) -> bool:
        stats = involutions.pair_statistics(iota)
        return all(
            length(w) == stats.c + 2 * stats.r and conjugation_check(w, iota)
            for w in pair_permutations(iota).perms
        )

    return _first_failure(items, holds)


def degeneration(iota: FpfInvolution, budget: GBBudget) -> Result:
    """The orbit closure of iota degenerates to the union of its pair
    permutations' Schubert varieties; None when `budget` runs out first."""
    report = symplectic.verify_degeneration(iota, budget)
    return report.equal, report.budget_exhausted or ""


def classification_invariance(samples: int, rng: random.Random) -> Result:
    """`classify_orbit` puts `samples` random b * s at 2n = 4 in the orbit of
    the identity, j_bar(2); `detail` is the first other orbit found."""
    for _ in range(samples):
        b = symplectic.random_lower_triangular(4, rng)
        s = symplectic.random_symplectic(2, rng)
        found = symplectic.classify_orbit(symplectic.mat_mul(b, s))
        if found != involutions.j_bar(2):
            return False, str(found)
    return True, ""


#: name and check, in report order; `verify-all` runs each at every half-size
PER_SIZE_CHECKS: tuple[tuple[str, Callable[[Sequence[FpfInvolution]], Result]], ...] = (
    ("length_formula", length_formula),
    ("odd_rank_constraint", odd_rank_constraint),
    ("basic_decomposition", basic_decomposition),
    ("pair_permutation_length", pair_permutation_length),
)
