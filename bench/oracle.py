"""Reference computations that share no code with sporbits.

Every verdict the benchmark times is checked against one of these, outside
the timed region.  They work on plain tuples and integers (or Fractions), so
a defect in the package under test cannot make its own check pass.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


def inversions(word: tuple[int, ...]) -> int:
    """Coxeter length of a one-line word."""
    return sum(1 for a, b in itertools.combinations(word, 2) if a > b)


def arcs(word: tuple[int, ...]) -> list[tuple[int, int]]:
    """Arcs (a, b), a < b, of a fixed-point-free involution, by left end."""
    return sorted((i, v) for i, v in enumerate(word, start=1) if i < v)


def crossings_and_nestings(word: tuple[int, ...]) -> tuple[int, int]:
    """(c, r): arc pairs a < x < b < y (crossing) and a < x < y < b (nesting)."""
    c = r = 0
    for (a, b), (x, y) in itertools.combinations(arcs(word), 2):
        if x < b < y:
            c += 1
        elif y < b:
            r += 1
    return c, r


def is_fpf_involution(word: tuple[int, ...]) -> bool:
    n = len(word)
    return (
        n % 2 == 0
        and sorted(word) == list(range(1, n + 1))
        and all(word[v - 1] == i and v != i for i, v in enumerate(word, start=1))
    )


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def j_bar_word(n: int) -> tuple[int, ...]:
    return tuple(v for k in range(1, n + 1) for v in (2 * k, 2 * k - 1))


def conjugates_jbar_to(w: tuple[int, ...], iota: tuple[int, ...]) -> bool:
    """w^-1 o jbar o w == iota, tested as jbar(w(i)) == w(iota(i)) for all i."""
    jb = j_bar_word(len(w) // 2)
    return all(jb[w[i] - 1] == w[iota[i] - 1] for i in range(len(w)))


def rank_matrix(word: tuple[int, ...]) -> list[list[int]]:
    """Entry (i, j) counts k <= i with word[k] <= j (1-based i, j)."""
    n = len(word)
    return [
        [sum(1 for k in range(i + 1) if word[k] <= j + 1) for j in range(n)]
        for i in range(n)
    ]


def orbit_representative(word: tuple[int, ...]) -> list[list[int]]:
    """Permutation matrix P with P J P^T having +1 at (a_k, b_k) for the k-th
    arc (a_k, b_k) by left endpoint: a 1 in row a_k, column 2k-1 and in row
    b_k, column 2k."""
    size = len(word)
    P = [[0] * size for _ in range(size)]
    for k, (a, b) in enumerate(arcs(word), start=1):
        P[a - 1][2 * k - 2] = 1
        P[b - 1][2 * k - 1] = 1
    return P


def form_j(n: int) -> list[list[int]]:
    size = 2 * n
    J = [[0] * size for _ in range(size)]
    for k in range(n):
        J[2 * k][2 * k + 1] = 1
        J[2 * k + 1][2 * k] = -1
    return J


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def determinant(A) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in A]
    size = len(rows)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def random_borel(size: int, rng: random.Random) -> list[list[int]]:
    """Invertible lower-triangular integer matrix."""
    return [
        [rng.randint(-3, 3) if j < i else rng.choice((-2, -1, 1, 2)) if j == i else 0 for j in range(size)]
        for i in range(size)
    ]


def random_symplectic(n: int, rng: random.Random, transvections: int = 3) -> list[list[int]]:
    """Integer S with S J S^T = J: a product of transvections I + lam (Jv) v^T."""
    size = 2 * n
    J = form_j(n)
    S = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(transvections):
        v = [rng.randint(-2, 2) for _ in range(size)]
        if not any(v):
            v[rng.randrange(size)] = 1
        lam = rng.choice((-2, -1, 1, 2))
        Jv = [sum(J[i][k] * v[k] for k in range(size)) for i in range(size)]
        T = [[int(i == j) + lam * Jv[i] * v[j] for j in range(size)] for i in range(size)]
        S = matmul(S, T)
    if matmul(matmul(S, J), transpose(S)) != J:
        raise AssertionError("transvection product does not preserve J")
    return S


def random_invertible(size: int, rng: random.Random) -> list[list[int]]:
    """Integer matrix with entries in [-3, 3] and nonzero determinant."""
    while True:
        M = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        if determinant(M) != 0:
            return M
