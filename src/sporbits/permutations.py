"""Permutations in one-line notation with the Schubert-combinatorics toolkit:
rank matrices, Rothe diagrams, essential boxes, inversion length and Bruhat
order.

All words are 1-based: the permutation 2143 sends 1 to 2, 2 to 1, etc.

A note on the Bruhat comparison direction: the covering relation ("q covers p
when q = p*t_ij and the length goes up by one") is the ground truth here.  The
rank-matrix comparator agrees with its transitive closure in the direction

    p <= q   iff   rank_matrix(p) >= rank_matrix(q) entrywise,

i.e. the identity permutation has the entrywise-largest rank matrix and is the
Bruhat minimum.  The direction was fixed by an exhaustive check against the
covering relation on S_4 (see tests), not taken from prose.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..N}, stored as its one-line word."""

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.word)
        if sorted(self.word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.word}")

    @classmethod
    def from_any(cls, value):
        """Coerce to `cls` a word: an iterable of ints, a digit string, a
        comma list such as "10,9,8,7,6,5,4,3,2,1", or a Permutation.  An
        empty word is refused: no command has a use for it."""
        if isinstance(value, cls):
            return value
        if isinstance(value, Permutation):
            value = value.word
        elif isinstance(value, str):
            value = value.split(",") if "," in value else value.strip()
        word = tuple(int(v) for v in value)
        if not word:
            raise ValueError("empty word")
        return cls(word)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @property
    def size(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        """Image of i (1-based)."""
        return self.word[i - 1]

    def __len__(self) -> int:
        return len(self.word)

    def inverse(self) -> "Permutation":
        return Permutation(tuple(_inverse_word(self.word)))

    def to_json(self) -> list[int]:
        return list(self.word)

    def __str__(self) -> str:
        if self.size <= 9:
            return "".join(str(v) for v in self.word)
        return ",".join(str(v) for v in self.word)


def _inverse_word(word: tuple[int, ...]) -> list[int]:
    """The one-line word of the inverse of a permutation's word."""
    inv = [0] * len(word)
    for i, v in enumerate(word, 1):
        inv[v - 1] = i
    return inv


@lru_cache(maxsize=None)
def _rank_matrix(word: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    n = len(word)
    rows = []
    prev = [0] * n
    for i in range(n):
        row = list(prev)
        for j in range(word[i] - 1, n):
            row[j] += 1
        rows.append(tuple(row))
        prev = row
    return tuple(rows)


def rank_matrix(p: Permutation) -> tuple[tuple[int, ...], ...]:
    """The rank matrix: entry (i,j) counts k <= i with p(k) <= j."""
    return _rank_matrix(p.word)


def length(p: Permutation) -> int:
    """Inversion count (Coxeter length)."""
    w = p.word
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def rothe_diagram(p: Permutation) -> frozenset[tuple[int, int]]:
    """Cells (i,j), 1-based, with j < p(i) and p^-1(j) > i."""
    inv = _inverse_word(p.word)
    return frozenset(
        (i, j)
        for i in range(1, p.size + 1)
        for j in range(1, p.word[i - 1])
        if inv[j - 1] > i
    )


def essential_boxes(p: Permutation) -> frozenset[tuple[int, int, int]]:
    """SE-maximal Rothe cells, each with its rank-matrix value."""
    return _corners(p, rothe_diagram(p))


def _corners(
    p: Permutation, cells: frozenset[tuple[int, int]]
) -> frozenset[tuple[int, int, int]]:
    """The cells with no cell immediately south or east, each carrying its
    entry of p's rank matrix."""
    rm = rank_matrix(p)
    return frozenset(
        (i, j, rm[i - 1][j - 1])
        for (i, j) in cells
        if (i + 1, j) not in cells and (i, j + 1) not in cells
    )


def bruhat_leq(p: Permutation, q: Permutation) -> bool:
    """p <= q in (strong) Bruhat order; identity is the minimum.

    Computed by the entrywise rank-matrix criterion (direction validated
    against the covering relation on S_4).
    """
    if p.size != q.size:
        raise ValueError("size mismatch")
    rp, rq = rank_matrix(p), rank_matrix(q)
    return all(rp[i][j] >= rq[i][j] for i in range(p.size) for j in range(p.size))

