"""Combinatorics of Sp_n-orbit closures on the flag manifold, with an exact
computer-algebra kernel for verifying their Groebner degenerations at small
rank.

The package splits into a combinatorial half (permutations, fixed-point-free
involutions, pair permutations) and an algebraic half (sparse rational
polynomials, term orders, Buchberger and its certificate, initial ideals,
pfaffian orbit-closure ideals, and ideal intersection by elimination, which
only the tests' reference oracle `union_schubert_ideal` uses).
"""

from sporbits.permutations import (
    Permutation,
    bruhat_leq,
    essential_boxes,
    length,
    rank_matrix,
    rothe_diagram,
)
from sporbits.involutions import (
    FpfInvolution,
    PairStatistics,
    basics_decomposition,
    construct_a_even,
    construct_a_odd,
    covers,
    enumerate_fpf,
    fpf_length,
    glb,
    j_bar,
    odd_rank_constraint_holds,
    opposite_leq,
    pair_statistics,
    symplectic_essential_boxes,
    upper_covers,
    wiring_ascii,
    wiring_parse,
)
from sporbits.pairperms import (
    PairPermutationSet,
    conjugation_check,
    pair_permutations,
)
from sporbits.polynomials import Polynomial, VariableSet
from sporbits.orders import (
    TermOrder,
    antidiagonal_order,
    elimination_order,
    grevlex_order,
    lex_order,
    weight_refined_order,
)
from sporbits.groebner import (
    BudgetExceeded,
    GBBudget,
    Ideal,
    buchberger,
    ideal_intersection,
    initial_ideal,
    is_groebner_basis,
    normal_form,
)
from sporbits.symplectic import (
    DegenerationReport,
    build_mjmt,
    classify_orbit,
    column_weights,
    fulton_generators,
    orbit_ideal,
    pfaffian,
    symplectic_form,
    union_schubert_ideal,
    verify_degeneration,
    verify_knutson_miller,
)

__all__ = [name for name in dir() if not name.startswith("_")]
