"""The algebraic side: the symplectic form J, the antisymmetric matrix MJM^T
in a generic matrix of variables, pfaffians, Fulton ideals of matrix Schubert
varieties, orbit-closure ideals by one pfaffian rule over the symplectic
essential boxes, numeric orbit classification, and the two computational
verifiers (Knutson-Miller and the orbit degeneration).

A pfaffian of MJM^T is a sum of minors of M with disjoint terms
(`_mjmt_pfaffian`), so one Leibniz writer, `_minor`, writes every generic
minor and pfaffian; `pfaffian` and `determinant` expand general matrices.
The writer keys each term as the sum of per-variable keys over its cells:
the polynomial keys of VariableSet.units for Polynomials, a term order's
`units` for the verifiers, which so hand minors and pfaffians to the
Groebner kernel without any term being unpacked or keyed again.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from sporbits.groebner import (
    BudgetExceeded,
    GBBudget,
    Ideal,
    KeyOverflow,
    _bits,
    _check_budget,
    _divisors,
    _reduce_terms,
    ideal_intersection,
    keyed_certificate,
    keyed_initial_basis,
)
from sporbits.involutions import FpfInvolution, symplectic_essential_boxes
from sporbits.orders import TermOrder, antidiagonal_order, tie_key_mask, weight_refined_order
from sporbits.pairperms import pair_permutations
from sporbits.permutations import Permutation, essential_boxes
from sporbits.polynomials import Polynomial, VariableSet, _write_terms


def symplectic_form(n: int) -> tuple[tuple[int, ...], ...]:
    """The 2n x 2n block-diagonal form with 2x2 blocks ((0,1),(-1,0))."""
    size = 2 * n
    rows = [[0] * size for _ in range(size)]
    for k in range(n):
        rows[2 * k][2 * k + 1] = 1
        rows[2 * k + 1][2 * k] = -1
    return tuple(tuple(r) for r in rows)


def build_mjmt(n: int) -> list[list[Polynomial]]:
    """MJM^T for the generic 2n x 2n matrix of variables: entry (a,b) is
    sum_k m[a,2k-1] m[b,2k] - m[a,2k] m[b,2k-1], the pfaffian on {a, b}."""
    size = 2 * n
    vs = VariableSet.matrix(size)
    zero = Polynomial.zero(vs)
    A = [[zero for _ in range(size)] for _ in range(size)]
    for a, b in itertools.combinations(range(1, size + 1), 2):
        A[a - 1][b - 1] = Polynomial._of(vs, _mjmt_pfaffian(vs.units, (a, b), n))
        A[b - 1][a - 1] = -A[a - 1][b - 1]
    return A


# ---------------------------------------------------------------------------
# pfaffians and determinants (work over any commutative ring: Polynomial or
# Fraction entries)


def determinant(A: Sequence[Sequence]) -> object:
    """Exact determinant by minor expansion, memoized over column subsets."""
    return _expand(A, by_pairs=False)


def pfaffian(A: Sequence[Sequence]) -> object:
    """Pfaffian of an antisymmetric matrix of even size, by the perfect
    matching expansion.  Sign convention: pf ((0,a),(-a,0)) = +a.  Squares to
    the determinant."""
    size = len(A)
    if size % 2 != 0:
        raise ValueError("pfaffian needs even size")
    for i in range(size):
        if not _is_zero(A[i][i]):
            raise ValueError("diagonal must vanish")
        for j in range(i + 1, size):
            if A[i][j] != -A[j][i]:
                raise ValueError("matrix is not antisymmetric")
    return _expand(A, by_pairs=True)


def _expand(A: Sequence[Sequence], by_pairs: bool) -> object:
    """Signed expansion memoized over index subsets.  The determinant expands
    the next row over the remaining columns; the pfaffian (by_pairs) pairs the
    first remaining index with each of the others.  When A[0][0] is a
    Polynomial, each signed entry * sub is added straight into one term dict;
    otherwise (Fraction, int) terms are plain products and sums."""
    size = len(A)
    probe = A[0][0] if A else 0
    poly = isinstance(probe, Polynomial)
    memo: dict[tuple[int, ...], object] = {(): Polynomial.constant(probe.vs, 1) if poly else 1}

    def expand(indices: tuple[int, ...]):
        if indices in memo:
            return memo[indices]
        if by_pairs:
            row, rest = indices[0], indices[1:]
        else:
            row, rest = size - len(indices), indices
        total = {} if poly else None
        for pos, j in enumerate(rest):
            entry = A[row][j]
            if _is_zero(entry):
                continue
            sub = expand(rest[:pos] + rest[pos + 1 :])
            if poly:
                probe._coerce(entry)._add_product(total, sub, -1 if pos % 2 else 1)
            else:
                term = entry * sub if pos % 2 == 0 else (-entry) * sub
                total = term if total is None else total + term
        memo[indices] = Polynomial._of(probe.vs, total) if poly else Fraction(0) if total is None else total
        return memo[indices]

    return expand(tuple(range(size)))


def _is_zero(x) -> bool:
    return x.is_zero() if isinstance(x, Polynomial) else x == 0


# ---------------------------------------------------------------------------
# Fulton / Schubert ideals


def fulton_minors(p: Permutation) -> list[tuple[tuple[int, ...], tuple[int, ...], Polynomial]]:
    """(rows, cols, minor) for every rank condition at an essential box: all
    (r+1) x (r+1) minors of the northwest i x j submatrix."""
    vs = VariableSet.matrix(p.size)
    return [(rows, cols, Polynomial._of(vs, terms)) for rows, cols, terms in _keyed_minors(p, vs.units)]


def _keyed_minors(p: Permutation, units: Sequence[int]) -> list[tuple[tuple[int, ...], tuple[int, ...], dict[int, int]]]:
    """fulton_minors(p) with each minor as a term dict keyed by `units`, the
    per-variable keys of a ring whose first variables are the p.size x p.size
    matrix, row-major."""
    return [
        (rows, cols, _minor(units, p.size, rows, cols))
        for i, j, r in sorted(essential_boxes(p))
        for rows in itertools.combinations(range(1, i + 1), r + 1)
        for cols in itertools.combinations(range(1, j + 1), r + 1)
    ]


def _minor(units: Sequence[int], size: int, rows: Sequence[int], cols: Sequence[int]) -> dict[int, int]:
    """The generic minor on equally many 1-based rows and columns of the
    size x size matrix, by Leibniz: one squarefree term per permutation, with
    its sign, keyed as the sum of units[v] over its variables v.  The terms
    are written in the lexicographic order of the permutations
    (`_signed_cells`), so the antidiagonal term, of the reversal, is written
    last."""
    if len(rows) == 1:
        return {units[(rows[0] - 1) * size + cols[0] - 1]: 1}
    entries = [units[(a - 1) * size + b - 1] for a in rows for b in cols]
    return {sum(map(entries.__getitem__, cells)): s for s, cells in _signed_cells(len(rows))}


@functools.cache
def _signed_cells(k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(sign of s, row-major cells a * k + s(a)) per permutation s of
    range(k), in lexicographic order.

    The signs come by blocks, not by counting inversions: the permutations
    starting with x form the x-th block of k, and each has x inversions at
    its first place (the x smaller values all come later), while its tail
    runs over the permutations of the other k - 1 values in lexicographic
    order, which have the signs of those of range(k - 1) in order, as
    relabelling the values monotonically keeps every inversion.  So the sign
    sequence for k is that for k - 1 repeated k times, negated in every odd
    block, from the single sign 1 of the empty permutation."""
    signs = [1]
    for j in range(2, k + 1):
        flipped = list(map(operator.neg, signs))
        signs = list(itertools.chain.from_iterable(flipped if x & 1 else signs for x in range(j)))
    rows = [a * k for a in range(k)]
    cells = map(map, itertools.repeat(operator.add), itertools.repeat(rows), itertools.permutations(range(k)))
    return tuple(zip(signs, map(tuple, cells)))


def _mjmt_pfaffian(units: Sequence[int], T: Sequence[int], n: int) -> dict[int, int]:
    """pf((MJM^T)_T) for the generic 2n x 2n matrix M, by the minor summation
    formula (Ishikawa-Wakayama, Linear and Multilinear Algebra 1995): the sum
    of det M[T, S] over the column sets S of |T|/2 pairs {2k-1, 2k}, as
    pf(J_S) is 1 on a union of blocks and 0 on any other S.  Distinct S have
    distinct column sets, so no two minors share a monomial: each term is
    written once, keyed by `units` as `_minor` keys it."""
    packed: dict[int, int] = {}
    for ks in itertools.combinations(range(1, n + 1), len(T) // 2):
        packed.update(_minor(units, 2 * n, T, [c for k in ks for c in (2 * k - 1, 2 * k)]))
    return packed


def _antidiagonal(vs: VariableSet, rows: Sequence[int], cols: Sequence[int]) -> int:
    """The antidiagonal term m[rows[0], cols[-1]] * ... * m[rows[-1], cols[0]]
    of a minor, as a bitmask of variable indices."""
    return sum(1 << vs.matrix_var(i, j) for i, j in zip(rows, reversed(cols)))


def _mask_key(order: TermOrder, mask: int) -> int:
    """The key under `order` of the squarefree monomial given as a bitmask:
    the units of its set bits."""
    return sum(map(order.units.__getitem__, _bits(mask)))


#: candidates `_minimal` tests between two budget checks: each is tested
#: against every generator kept so far, up to 1,989 of them at 2n = 10
_CHECK_MASKS = 1_000


def _minimal(masks: Iterable[int], check: Callable[[], float] | None = None) -> list[int]:
    """Minimal generators of the ideal of squarefree monomials given as
    bitmasks, scanned by degree, then by mask.  `check`, when given, is
    called once the candidate set is built, once it is sorted, and then
    before every _CHECK_MASKS-th candidate after the first, as building the
    set can take as long as the quadratic scan."""
    candidates = set(masks)
    if check:
        check()
    # a stable sort by degree keeps the masks ascending within each degree
    ordered = sorted(candidates)
    ordered.sort(key=int.bit_count)
    kept: list[int] = []
    for i, m in enumerate(ordered):
        if check and not i % _CHECK_MASKS:
            check()
        if all(m & k != k for k in kept):
            kept.append(m)
    return kept


def _meet(A: Sequence[int], B: Sequence[int], check: Callable[[], float] | None = None) -> list[int]:
    """Minimal generators of the intersection of two squarefree monomial
    ideals, given by minimal generators as bitmasks: the lcms a | b, minimal
    among them (`_minimal`, which reads `check`).  A generator of A that some
    b divides lies in B, and every lcm a | b' is a multiple of it, so it is
    kept as it is; only the others are ORed with B, `check` read before
    each of them, as one generator's ORs can run past a deadline."""
    kept, rest = [], []
    for a in A:
        (kept if any(a & b == b for b in B) else rest).append(a)
    candidates = set(kept)
    for a in rest:
        if check:
            check()
        candidates.update(map(operator.or_, itertools.repeat(a), B))
    return _minimal(candidates, check)


def fulton_generators(p: Permutation) -> Ideal:
    """The Fulton generators of the matrix Schubert ideal I_p; the identity
    permutation yields the zero ideal."""
    return Ideal(VariableSet.matrix(p.size), [poly for _, _, poly in fulton_minors(p)])


def union_schubert_ideal(perms: Sequence[Permutation], budget: GBBudget | None = None) -> Ideal:
    """Ideal of the union of matrix Schubert varieties: the intersection of
    the Fulton ideals, computed by iterated elimination."""
    if not perms:
        raise ValueError("need at least one permutation")
    size = perms[0].size
    if any(p.size != size for p in perms):
        raise ValueError("size mismatch")
    inner = antidiagonal_order(VariableSet.matrix(size))
    result = fulton_generators(perms[0])
    for p in perms[1:]:
        if result.is_zero():
            return result
        result = ideal_intersection(result, fulton_generators(p), inner, budget)
    return result


# ---------------------------------------------------------------------------
# orbit-closure ideals

#: most terms expanded for one input: the orbit pfaffians of one involution
#: (at 2n <= 10, 7,3,2,10,9,8,1,6,5,4 needs the most: 1,170,050) or
#: verify_knutson_miller's minors (all of S_9 needs at most 80,884).
#: verify_degeneration also reads its deadline after each pfaffian;
#: orbit_ideal reads no clock, so this is its only bound
MAX_EXPANDED_TERMS = 1_200_000
#: largest matrix size N taken by orbit_ideal, verify_knutson_miller and the
#: groebner command: MAX_EXPANDED_TERMS bounds how many terms are written, this
#: bounds their width, as a generic N x N matrix has N^2 variables: the
#: degeneration verifier's weight-refined key has two 16-bit weight slots,
#: N^2 exponent slots of 8 bits and a 16-bit degree slot (1,200 bits at
#: N = 12), and N^2 + 3 slots of 16 bits (2,352 bits) when it reruns wide
MAX_MATRIX_SIZE = 12


def pfaffian_terms(n: int, q: int) -> int:
    """Terms of a q x q principal pfaffian of MJM^T at size 2n: one q x q
    minor of q! terms per choice of q/2 of the n column pairs, no two sharing
    a monomial (see _mjmt_pfaffian)."""
    return math.comb(n, q // 2) * math.factorial(q)


def orbit_pfaffian_indices(iota: FpfInvolution) -> list[tuple[int, ...]]:
    """Index sets T of the pfaffians pf(A_T) of A = MJM^T that orbit_ideal
    takes as generators.  Each symplectic essential box (i, j, r), in sorted
    order, gives every T in {1..j} of even size q, r+1 <= q <= 2r+2, with at
    least r+1 elements in {1..i}; each T is kept once.

    pf(A_T) vanishes on the closure: the rows of A_T in {1..i} have rank at
    most r and the other q - r - 1 rows add at most that, so rank A_T < q.
    The sets cut the closure out: if r+1 rows S in {1..i} are independent on
    r+1 columns C in {1..j}, a basis R of the rows of A_{S u C} containing S
    has pf(A_R) != 0, as a skew matrix is nonsingular on a basis of its rows.

    ValueError, before any expansion, when there is something to expand and
    2n > MAX_MATRIX_SIZE or the pfaffians have more than MAX_EXPANDED_TERMS terms.
    """
    boxes = sorted(symplectic_essential_boxes(iota))
    if not boxes:
        return []
    if iota.size > MAX_MATRIX_SIZE:
        raise ValueError(f"orbit ideals are built for 2n <= {MAX_MATRIX_SIZE}, not {iota.size}")
    index_sets = list(dict.fromkeys(
        T
        for i, j, r in boxes
        for q in range(r + 1 + (r + 1) % 2, min(2 * r + 2, j) + 1, 2)
        for T in itertools.combinations(range(1, j + 1), q)
        if sum(t <= i for t in T) > r
    ))
    terms = sum(pfaffian_terms(iota.n, len(T)) for T in index_sets)
    if terms > MAX_EXPANDED_TERMS:
        raise ValueError(f"{iota} needs {terms} pfaffian terms, over {MAX_EXPANDED_TERMS}")
    return index_sets


def orbit_ideal(iota: FpfInvolution) -> Ideal:
    """The pfaffians on orbit_pfaffian_indices(iota), each written term by
    term by the minor summation formula (no polynomial products); zero for the
    dense orbit."""
    index_sets = orbit_pfaffian_indices(iota)
    vs = VariableSet.matrix(iota.size)
    return Ideal(vs, [Polynomial._of(vs, _mjmt_pfaffian(vs.units, T, iota.n)) for T in index_sets])


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals (for classification and sampling)

Matrix = list[list[Fraction]]


def mat_from(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def mat_identity(size: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    return [
        [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*B)]
        for row in A
    ]


def mat_rank(A: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals by Gauss-Jordan elimination.  Nothing in the
    package calls it; the tests hold classify_orbit to it as the per-minor
    rank oracle."""
    rows = [list(r) for r in A]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = Fraction(1) / rows[pivot_row][col]
        rows[pivot_row] = [x * inv for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank


def _mjmt(M: Sequence[Sequence]) -> list[list]:
    """MJM^T of a matrix with an even number of columns: entry (a, b) is
    sum_k x[2k-1] y[2k] - x[2k] y[2k-1] over rows x = M[a], y = M[b], as in
    build_mjmt."""
    return [[sum(x[k] * y[k + 1] - x[k + 1] * y[k] for k in range(0, len(x), 2)) for y in M] for x in M]


def classify_orbit(M: Sequence[Sequence]) -> FpfInvolution:
    """The involution indexing the orbit of an invertible matrix: the unique
    iota whose rank matrix is the northwest ranks of A = MJM^T, read off one
    echelon pass over the rows of A.

    M is first scaled by the lcm of its denominators, which changes no rank,
    so A is an integer matrix and each row is reduced fraction-free (a*x - b*y)
    against the pivot rows kept so far.  The remainders of rows 1..i span the
    rows of A[:i] with distinct leading columns, so rank(A[:i, :j]) counts the
    k <= i whose remainder leads in a column <= j: iota(i) is the leading
    column of row i's remainder.
    """
    Mq = mat_from(M)
    size = len(Mq)
    if size == 0 or size % 2 != 0 or any(len(r) != size for r in Mq):
        raise ValueError("need a square matrix of even size")
    scale = math.lcm(*(x.denominator for row in Mq for x in row))
    Z = [[int(x * scale) for x in row] for row in Mq]
    A = _mjmt(Z)
    pivots: dict[int, list[int]] = {}
    word = []
    for x in A:
        lead = next((c for c, v in enumerate(x) if v), None)
        while lead in pivots:
            y = pivots[lead]
            a, b = y[lead], x[lead]
            x = [a * u - b * v for u, v in zip(x, y)]
            g = math.gcd(*x)
            if g > 1:
                x = [u // g for u in x]
            lead = next((c for c, v in enumerate(x) if v), None)
        if lead is None:
            raise ValueError("singular input")
        pivots[lead] = x
        word.append(lead + 1)
    try:
        return FpfInvolution(tuple(word))
    except ValueError:
        raise ValueError("no involution matches the rank profile (bug?)") from None


def random_lower_triangular(size: int, rng) -> Matrix:
    """Random invertible lower-triangular matrix with small integer entries."""
    B = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        B[i][i] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        for j in range(i):
            B[i][j] = Fraction(rng.randint(-3, 3))
    return B


def random_symplectic(n: int, rng) -> Matrix:
    """Random element of Sp_n over the rationals: a product of four symplectic
    transvections I + lam * (J v^T) v, which preserve MJM^T = J exactly.
    Each is applied as a rank-one update, S (I + lam (J v^T) v) =
    S + lam (S J v^T) v, where J v^T = (v_2, -v_1, v_4, -v_3, ...)."""
    size = 2 * n
    S = mat_identity(size)
    for _ in range(4):
        v = [Fraction(rng.randint(-2, 2)) for _ in range(size)]
        if all(x == 0 for x in v):
            v[rng.randrange(size)] = Fraction(1)
        lam = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
        Jvt = [v[i + 1] if i % 2 == 0 else -v[i - 1] for i in range(size)]
        SJvt = [lam * sum(a * b for a, b in zip(row, Jvt)) for row in S]
        S = [[x + u * y for x, y in zip(row, v)] for row, u in zip(S, SJvt)]
    if _mjmt(S) != [list(row) for row in symplectic_form(n)]:
        raise AssertionError("transvection product failed to preserve J")
    return S


# ---------------------------------------------------------------------------
# verifiers


def verify_knutson_miller(p: Permutation, budget: GBBudget | None = None) -> bool:
    """Check that the Fulton generators are a Groebner basis under the
    antidiagonal order (Knutson-Miller, Annals 2005, Thm B).  The minors are
    written keyed by the order's units: each minor's lead, the largest of its
    keys, must be its antidiagonal term, the key `_minor` writes last (the
    sum of the units of its cells), and keyed_certificate must hold on
    the same term dicts, which reduces only the pairs the product and chain
    criteria leave but counts all it examines against the budget (its
    BudgetExceeded passes through).  The time cap counts from this call:
    the certificate gets the time the minors left.
    ValueError, before any expansion, when p is larger than MAX_MATRIX_SIZE
    or its minors have more than MAX_EXPANDED_TERMS terms (a k x k minor has
    k!)."""
    budget = budget or GBBudget()
    check = _check_budget(budget, {"pairs_processed": 0})
    if p.size > MAX_MATRIX_SIZE:
        raise ValueError(f"Knutson-Miller is checked for sizes <= {MAX_MATRIX_SIZE}, not {p.size}")
    terms = sum(math.comb(i, r + 1) * math.comb(j, r + 1) * math.factorial(r + 1) for i, j, r in essential_boxes(p))
    if terms > MAX_EXPANDED_TERMS:
        raise ValueError(f"{p} needs {terms} minor terms, over {MAX_EXPANDED_TERMS}")
    order = antidiagonal_order(VariableSet.matrix(p.size), narrow=True)
    minors = [terms for *_, terms in _keyed_minors(p, order.units)]
    # _minor writes a minor's antidiagonal term last
    if any(max(terms) != next(reversed(terms)) for terms in minors):
        return False
    return keyed_certificate(minors, order, replace(budget, max_seconds=check()))


def column_weights(vs: VariableSet) -> tuple[int, ...]:
    """The degeneration weights of the n x n matrix variables: m[i,j] weighs
    ceil(j/2) - 1."""
    n = vs.matrix_size
    return tuple((k % n) // 2 for k in range(n * n))


@dataclass
class DegenerationReport:
    """Outcome of one degeneration check (see verify_degeneration): L's
    reduced basis, and witnesses saying why L != J.  The JSON gives J's
    initial generators as that basis when equal is True, else none."""

    iota: FpfInvolution
    pair_perms: tuple[Permutation, ...]
    left_generators: tuple[str, ...]
    equal: bool | None
    witnesses: tuple[str, ...] = ()
    budget_exhausted: str | None = None
    timings: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "iota": self.iota.to_json(),
            "pair_permutations": [p.to_json() for p in self.pair_perms],
            "left_initial_generators": list(self.left_generators),
            "right_initial_generators": list(self.left_generators) if self.equal else [],
            "equal": self.equal,
            "witnesses": list(self.witnesses),
            "budget_exhausted": self.budget_exhausted,
            "timings": self.timings,
        }


def verify_degeneration(
    iota: FpfInvolution, budget: GBBudget | None = None
) -> DegenerationReport:
    """Check L = J: L = in_w(I(Y_iota)) under the column weights w, J the
    intersection of the Fulton ideals I_v over the pair permutations v.  One
    Groebner basis, that of the orbit ideal under the weight-refined order,
    taken only as far as G_L, L's reduced basis under the same order: the
    initial forms of its minimal elements, interreduced, as the pfaffians are
    homogeneous (keyed_initial_basis).  Then a certificate:
    (i) each g in G_L reduces to 0 modulo each v's Fulton minors under the
    antidiagonal order, so L lies in J; (ii) a lead of G_L divides each
    generator of A, the intersection of the ideals of the antidiagonal terms
    of v's minors (squarefree, so pairwise ORs of bitmasks).

    No term leaves its key: the pfaffians are written keyed by the
    weight-refined order's units, G_L is cut off that basis's keys, and each
    g's antidiagonal keys are the low slots of its weight-refined keys
    (`tie_key_mask`), used for every v's normal form, and the largest of
    them is the lead (ii) reads; each v's minors are written keyed by the
    antidiagonal order's units and divided by as one divisor list
    (`_divisors`).  The report's strings of G_L are written straight from
    those antidiagonal keys, by the writer Polynomial's text uses.  A is
    built one v at a time (`_meet`).  Reading G_L's leads under the
    antidiagonal order is sound: each g is the initial form of a homogeneous
    element, so its terms share degree and w-weight, the weight-refined
    order's first two rows tie on g, and it falls through to the antidiagonal
    ranking, picking the same lead.

    Proof: J is homogeneous in degree and weight, as the minors are, so its
    weight-refined leads are antidiagonal leads and lie in each in(I_v), the
    ideal of v's antidiagonal terms (Knutson-Miller, "Groebner geometry of
    Schubert polynomials", Annals 2005, Thm B).  So in(J) lies in A, in(L)
    by (ii) and in(J) by (i); in(L) = in(J) and L in J give L = J.  So
    `equal: True` rests on the certificate and Knutson-Miller alone; `False`
    from (i) on Knutson-Miller (a nonzero remainder modulo a Groebner basis
    proves g not in I_v), from (ii) on in(J) = A, Knutson's theorem that the
    initial ideal of the intersection is the intersection of the initial
    ideals ("Frobenius splitting, point-counting, and degeneration",
    arXiv:0911.4941).  A witness names g and v, or a generator of A outside
    in(L).  Budget exhaustion is reported apart, with no verdict.  One time
    cap counts from this call: it is checked after each pfaffian, handed on
    to the basis as the time left, and checked before each v, within each
    reduction of the certificate and within each intersection for A; the
    pair and degree caps bind only the basis.

    Every key is narrow (TermOrder.narrow): 8-bit exponent slots under the
    16-bit weight and degree slots, about half the width of a 16-bit key,
    so each key addition, AND and dict lookup of the left phase is cheaper.
    A 7-bit exponent field overflows only once a term passes degree 127,
    which an S-pair lcm of two elements within the degree cap can do when
    the cap exceeds 63 (--deep's is 80).  Then a guard bit is set, the
    kernel raises KeyOverflow, and the whole check reruns at 16 bits under
    the same deadline, giving the report a 16-bit run gives; a 16-bit
    overflow passes through as a ValueError."""
    budget = budget or GBBudget()
    stats: dict = {}
    check = _check_budget(budget, stats)
    pp = pair_permutations(iota)
    try:
        return _degeneration(iota, pp.perms, budget, stats, check, narrow=True)
    except KeyOverflow:
        stats.clear()
        return _degeneration(iota, pp.perms, budget, stats, check, narrow=False)


def _degeneration(
    iota: FpfInvolution,
    perms: tuple[Permutation, ...],
    budget: GBBudget,
    stats: dict,
    check: Callable[[], float],
    narrow: bool,
) -> DegenerationReport:
    """verify_degeneration's check against the pair permutations `perms`,
    under `check`, which reads `budget`'s deadline and `stats`, with every
    term keyed in the `narrow` layout or at 16 bits; KeyOverflow when a
    product overflows a field."""
    stats["pfaffians_written"] = 0
    vs = VariableSet.matrix(iota.size)
    weights = column_weights(vs)
    tie = antidiagonal_order(vs, narrow)
    order = weight_refined_order(vs, weights, tie)
    timings: dict[str, float] = {}
    try:
        t0 = time.monotonic()
        pfaffians: list[dict[int, int]] = []
        index_sets = orbit_pfaffian_indices(iota)
        stats["pfaffians"] = len(index_sets)
        for T in index_sets:
            pfaffians.append(_mjmt_pfaffian(order.units, T, iota.n))
            stats["pfaffians_written"] = len(pfaffians)
            check()
        left = keyed_initial_basis(pfaffians, order, weights, replace(budget, max_seconds=check())) if pfaffians else []
        timings["left_seconds"] = time.monotonic() - t0
        t0 = time.monotonic()
        low = tie_key_mask(tie)
        keyed = [{k & low: c for k, c in terms.items()} for terms in left]
        L = [_write_terms(vs.names, terms, tie.exponents) for terms in keyed]
        witnesses, common = [], [0]  # common starts as the unit ideal: the mask of 1
        for checked, v in enumerate(perms):
            stats["pair_permutations_checked"] = checked
            check()
            minors = _keyed_minors(v, tie.units)
            divisors = _divisors([terms for *_, terms in minors])
            witnesses += [
                f"{g} is not in I_{v}"
                for g, terms in zip(L, keyed)
                if _reduce_terms(dict(terms), divisors, tie.guards, check)
            ]
            common = _meet(common, [_antidiagonal(vs, rows, cols) for rows, cols, _ in minors], check)
    except BudgetExceeded as exc:
        exhausted = f"{exc.reason}: {exc.stats}"
        return DegenerationReport(iota, perms, (), None, budget_exhausted=exhausted, timings=timings)
    leads = list(map(max, keyed))
    for m in common:
        key = _mask_key(tie, m)
        if all((key - lead) & tie.guards for lead in leads):
            witnesses.append("*".join(x for i, x in enumerate(vs.names) if m >> i & 1) + " is not in in(L)")
    timings["certificate_seconds"] = time.monotonic() - t0
    return DegenerationReport(
        iota=iota,
        pair_perms=perms,
        left_generators=tuple(map(str, L)),
        equal=not witnesses,
        witnesses=tuple(witnesses),
        timings=timings,
    )
