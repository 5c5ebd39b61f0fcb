"""Pair permutations: the minimal-length conjugators carrying j_bar(n) to a
given fixed-point-free involution.

The defining property used here is the conjugation identity w^-1 o jbar o w =
iota (composition of one-line words as functions).  The orientation was fixed
by requiring the known value P(4321) = {1342, 3124}; the tests pin it.

The minimal conjugators are found by a rule, not a search: each arc of iota
goes to one block of jbar, and the block orders of minimal length are the
linear extensions of the arcs' dominance order (see pair_permutations).
Words of size 2n <= MAX_SIZE = 12 are accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from sporbits.involutions import FpfInvolution
from sporbits.permutations import Permutation, length

#: largest word size accepted, to bound the output: every pair of arcs of the
#: all-nested word (2n ... 1) nests, so it has n! pair permutations, 720 at 2n = 12
MAX_SIZE = 12


def conjugation_check(w: Permutation, iota: FpfInvolution) -> bool:
    """True when w^-1 o jbar o w equals iota, that is, when jbar(w(i)) =
    w(iota(i)) for every i, jbar swapping 2k-1 and 2k: x -> ((x-1) ^ 1) + 1."""
    if w.size != iota.size:
        raise ValueError("size mismatch")
    word = w.word
    return all(((x - 1) ^ 1) + 1 == word[y - 1] for x, y in zip(word, iota.word))


@dataclass(frozen=True)
class PairPermutationSet:
    """All minimal-length conjugators for one involution."""

    iota: FpfInvolution
    perms: tuple[Permutation, ...]
    common_length: int

    def to_json(self) -> dict:
        return {
            "iota": self.iota.to_json(),
            "pair_permutations": [p.to_json() for p in self.perms],
            "length": self.common_length,
        }


def pair_permutations(iota: FpfInvolution) -> PairPermutationSet:
    """All minimal-length conjugators w with w^-1 o jbar o w = iota, sorted by
    word: the linear extensions of the arc order, each of length c + 2r.

    Every conjugator sends each arc (a<b) of iota onto a block {2k-1, 2k} of
    jbar.  Sending a -> 2k, b -> 2k-1 instead of a -> 2k-1, b -> 2k adds
    exactly one inversion, the pair (a, b), since no value lies strictly
    between 2k-1 and 2k; so the minimum is attained only among the n! block
    orders with a -> 2k-1, b -> 2k.

    In such a block order the inversions are a sum over pairs of arcs, since
    an arc's own two positions never invert.  Take arcs (a<b) and (x<y) with
    a<x, and one position from each.  If the earlier arc gets the smaller
    block, the two invert when the one from the earlier arc comes second;
    otherwise when it comes first.  So the pair costs 0 or 4 inversions when
    the arcs are disjoint (b<x), 1 or 3 when they cross (x<b<y), and 2 either
    way when they nest (y<b).  Every block order thus has length at least
    c + 2r, with equality exactly when each earlier arc of a disjoint or
    crossing pair, that is, each arc with both ends before the other's (a<x
    and b<y), gets the smaller block.  That relation is dominance in the plane, a partial
    order, so it has linear extensions; each one reaches every pairwise
    minimum at once.  Hence the minimum is c + 2r and P(iota) is exactly the
    set of block orders that are linear extensions, built here by placing,
    block after block, an arc that dominates none of the arcs left.

    Raises ValueError above word size MAX_SIZE.
    """
    size = iota.size
    if size > MAX_SIZE:
        raise ValueError(f"word size {size} exceeds the cap {MAX_SIZE}")
    perms = tuple(map(Permutation, sorted(_extensions(iota.arcs, [0] * size))))
    return PairPermutationSet(iota, perms, length(perms[0]))


def _extensions(arcs: tuple[tuple[int, int], ...], word: list[int]) -> Iterator[tuple[int, ...]]:
    """The words that extend `word` by giving `arcs` the blocks after those
    already given, in every order in which each arc comes after the arcs
    that it dominates (both of whose ends are smaller)."""
    if not arcs:
        yield tuple(word)
    k = len(word) // 2 - len(arcs) + 1
    for a, b in arcs:
        if not any(x < a and y < b for x, y in arcs):
            word[a - 1], word[b - 1] = 2 * k - 1, 2 * k
            yield from _extensions(tuple(arc for arc in arcs if arc[0] != a), word)
