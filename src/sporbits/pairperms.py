"""Pair permutations: the minimal-length conjugators carrying j_bar(n) to a
given fixed-point-free involution.

The defining property used here is the conjugation identity w^-1 o jbar o w =
iota (composition of one-line words as functions).  The orientation was fixed
by requiring the known value P(4321) = {1342, 3124}; the tests pin it.

The minimal conjugators are found by a rule, not a search of S_2n: each arc of
iota goes to one block of jbar, in one of n! block orders (see
pair_permutations).  Words of size 2n <= MAX_SIZE = 12 are accepted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from sporbits.involutions import FpfInvolution, j_bar
from sporbits.permutations import Permutation, length

#: largest word size accepted: 6! = 720 block orders at 2n = 12
MAX_SIZE = 12


def conjugation_check(w: Permutation, iota: FpfInvolution) -> bool:
    """True when w^-1 o jbar o w equals iota."""
    if w.size != iota.size:
        raise ValueError("size mismatch")
    jb = j_bar(iota.size // 2).word
    winv = w.inverse().word
    return all(winv[jb[w.word[i] - 1] - 1] == iota.word[i] for i in range(w.size))


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
    word.

    Every conjugator sends each arc (a<b) of iota onto a block {2k-1, 2k} of
    jbar.  Sending a -> 2k, b -> 2k-1 instead of a -> 2k-1, b -> 2k adds
    exactly one inversion, the pair (a, b), since no value lies strictly
    between 2k-1 and 2k; so the minimum is attained only among the n! block
    orders with a -> 2k-1, b -> 2k, and the shortest of those are returned.
    Raises ValueError above word size MAX_SIZE.
    """
    size = iota.size
    if size > MAX_SIZE:
        raise ValueError(f"word size {size} exceeds the cap {MAX_SIZE}")
    candidates = []
    for blocks in itertools.permutations(range(1, iota.n + 1)):
        word = [0] * size
        for (a, b), k in zip(iota.arcs, blocks):
            word[a - 1], word[b - 1] = 2 * k - 1, 2 * k
        w = Permutation(tuple(word))
        candidates.append((length(w), w))
    best = min(l for l, _ in candidates)
    perms = sorted((w for l, w in candidates if l == best), key=lambda p: p.word)
    return PairPermutationSet(iota, tuple(perms), best)

