"""Fixed-point-free involutions as wiring diagrams.

Covers the poset side of the story: direct sums, crossing/nesting statistics
and the length formula n + 2c + 4r, the opposite-Bruhat order with covers and
greatest lower bounds, symplectic diagrams and essential boxes, the basic
families (single even box / even-odd box pair), and the decomposition of an
arbitrary involution into basic elements whose meet recovers it.

Convention: in the opposite Bruhat order longer words sit LOWER, so the
minimal-length involution j_bar(n) = 2143...(2n)(2n-1) is the unique top
element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import gt
from typing import Iterable, Iterator, Sequence

from sporbits.permutations import (
    Permutation,
    _corners,
    bruhat_leq,
    length,
    rank_matrix,
    rothe_diagram,
)

#: largest half-size enumerate_fpf lists, a bound on its output: the
#: (2n-1)!! involutions number 10,395 at 2n = 12 and 135,135 at 2n = 14
MAX_ENUM_HALF = 6
#: largest half-size hasse_diagram takes: at n = 6 its 10,395 involutions
#: would need about 624,000 conjugations, each with a 66-pair inversion count
MAX_HASSE_HALF = 5


@dataclass(frozen=True)
class FpfInvolution(Permutation):
    """A fixed-point-free involution of {1..2n}: a permutation whose length,
    Bruhat order, rank matrix and Rothe diagram are the word's own."""

    def __post_init__(self) -> None:
        w = self.word
        if len(w) % 2 != 0:
            raise ValueError("fixed-point-free involutions need even size")
        super().__post_init__()
        for i, v in enumerate(w, start=1):
            if v == i:
                raise ValueError(f"fixed point at {i} in {w}")
            if w[v - 1] != i:
                raise ValueError(f"not an involution: {w}")

    @staticmethod
    def from_arcs(arcs: Iterable[tuple[int, int]]) -> "FpfInvolution":
        pairs = [tuple(sorted(a)) for a in arcs]
        word = [0] * (2 * len(pairs))
        for a, b in pairs:
            word[a - 1], word[b - 1] = b, a
        return FpfInvolution(tuple(word))

    @property
    def n(self) -> int:
        """Half-size: the number of arcs."""
        return len(self.word) // 2

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """The n arcs {i, iota(i)} with i < iota(i), sorted by left endpoint."""
        return tuple(
            (i, v) for i, v in enumerate(self.word, start=1) if i < v
        )

    def permutation(self) -> Permutation:
        return Permutation(self.word)


@dataclass(frozen=True)
class PairStatistics:
    """Counts of arc-pair patterns: c crossings, r nestings, d disjoint."""

    c: int
    r: int
    d: int


def j_bar(n: int) -> FpfInvolution:
    """The minimal-length involution 2143...(2n)(2n-1): n side-by-side arcs."""
    if n < 1:
        raise ValueError("n must be positive")
    word = []
    for k in range(1, n + 1):
        word.extend((2 * k, 2 * k - 1))
    return FpfInvolution(tuple(word))


def pair_statistics(iota: FpfInvolution) -> PairStatistics:
    """Classify every pair of arcs as crossing, nesting, or disjoint.

    With arcs {a<b} and {x<y}, a<x: crossing means a<x<b<y (an embedded 3412
    pattern), nesting means a<x<y<b (embedded 4321), otherwise the arcs are
    disjoint.  Crossings count the countryside involutions contained in iota
    and nestings the rainbow ones.
    """
    arcs = iota.arcs
    c = r = d = 0
    for (a, b), (x, y) in itertools.combinations(arcs, 2):
        if x < b < y:
            c += 1
        elif y < b:
            r += 1
        else:
            d += 1
    return PairStatistics(c, r, d)


def fpf_length(iota: FpfInvolution) -> int:
    """Length via the wiring-diagram formula n + 2c + 4r."""
    stats = pair_statistics(iota)
    return iota.n + 2 * stats.c + 4 * stats.r


def conjugate_by_transposition(iota: FpfInvolution, i: int, j: int) -> FpfInvolution:
    """Switch the plugs in outlets i and j: t_ij * iota * t_ij."""
    w = list(iota.word)
    w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
    for k, v in enumerate(w):
        if v == i:
            w[k] = j
        elif v == j:
            w[k] = i
    return FpfInvolution(tuple(w))


def covers(iota: FpfInvolution, kappa: FpfInvolution) -> bool:
    """True when kappa covers iota in the opposite Bruhat order.

    kappa must arise from iota by one outlet switch and be shorter by exactly
    two (longer word = lower element).
    """
    if iota.size != kappa.size:
        raise ValueError("size mismatch")
    return kappa in upper_covers(iota)


def upper_covers(iota: FpfInvolution) -> frozenset[FpfInvolution]:
    """All elements covering iota (one switch, two units shorter)."""
    base = length(iota)
    out = set()
    for i, j in itertools.combinations(range(1, iota.size + 1), 2):
        if iota(i) == j:
            continue  # switching a wire's own endpoints is a no-op
        other = conjugate_by_transposition(iota, i, j)
        if length(other) == base - 2:
            out.add(other)
    return frozenset(out)


def enumerate_fpf(n: int) -> list[FpfInvolution]:
    """All (2n-1)!! fixed-point-free involutions of {1..2n}, deterministically,
    for n in 1..MAX_ENUM_HALF (ValueError otherwise).

    Ordered by pairing the smallest free outlet with each larger free outlet
    in increasing order.
    """
    if not 1 <= n <= MAX_ENUM_HALF:
        raise ValueError(f"n={n} is outside the enumeration bound 1..{MAX_ENUM_HALF}")
    return [FpfInvolution.from_arcs(arcs) for arcs in _matchings(tuple(range(1, 2 * n + 1)))]


def _matchings(free: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    if not free:
        yield ()
        return
    first, rest = free[0], free[1:]
    for k, partner in enumerate(rest):
        remaining = rest[:k] + rest[k + 1 :]
        for tail in _matchings(remaining):
            yield ((first, partner),) + tail


def opposite_leq(iota: FpfInvolution, kappa: FpfInvolution) -> bool:
    """iota <= kappa in the opposite Bruhat order (longer word = lower)."""
    return bruhat_leq(kappa, iota)


class NoUniqueMeet(ValueError):
    """Raised when a set of involutions has no unique greatest lower bound."""

    def __init__(self, antichain: Sequence[FpfInvolution]):
        self.antichain = tuple(antichain)
        words = ", ".join(str(k) for k in self.antichain)
        super().__init__(f"no unique meet; maximal common lower bounds: {words}")


def glb(elements: Iterable[FpfInvolution], n: int | None = None) -> FpfInvolution:
    """Greatest lower bound in the opposite Bruhat order, by the rank rule.

    k lies below every element exactly when its rank matrix is at most the
    entrywise minimum of theirs (Fulton, Duke 1992).  So when that minimum is
    the rank matrix of an involution kappa, kappa is the meet: it lies below
    every element, and any common lower bound k has r(k) <= min = r(kappa).
    Otherwise (as for 341265 and 215634, whose meet 351624 sits strictly
    under the minimum) the meet is the one maximal involution under it,
    found by listing enumerate_fpf(n), so only this branch is held to its
    bound, n <= MAX_ENUM_HALF: at n = 6 it lists 10,395 involutions.  glb of
    the empty set is the top element j_bar(n) (n must then be given).
    Raises NoUniqueMeet with the offending antichain, in enumerate_fpf order,
    if the maximal common lower bounds are not unique.
    """
    elems = list(elements)
    if not elems:
        if n is None:
            raise ValueError("glb of empty set needs an explicit half-size n")
        return j_bar(n)
    half = elems[0].n
    if any(e.n != half for e in elems):
        raise ValueError("size mismatch")
    ceiling = [
        tuple(map(min, zip(*rows)))
        for rows in zip(*(rank_matrix(e) for e in elems))
    ]
    meet = involution_of_ranks(ceiling)
    if meet is not None:
        return meet
    # never empty, as the reverse word lies below every involution
    lower = [
        k
        for k in enumerate_fpf(half)
        if all(a <= b for row, cap in zip(rank_matrix(k), ceiling) for a, b in zip(row, cap))
    ]
    # anything strictly above k has a larger rank-matrix sum, so taken by falling
    # sum, k is maximal exactly when no maximal element found so far is above it
    maximal = []
    for k in sorted(lower, key=lambda k: -sum(map(sum, rank_matrix(k)))):
        if not any(opposite_leq(k, m) for m in maximal):
            maximal.append(k)
    if len(maximal) == 1:
        return maximal[0]
    raise NoUniqueMeet([k for k in lower if k in maximal])


# ---------------------------------------------------------------------------
# symplectic diagrams, essential boxes, and the basic families


def symplectic_diagram(iota: FpfInvolution) -> frozenset[tuple[int, int]]:
    """Rothe diagram of the word intersected with the strict upper triangle."""
    return frozenset((i, j) for (i, j) in rothe_diagram(iota) if j > i)


def symplectic_essential_boxes(iota: FpfInvolution) -> frozenset[tuple[int, int, int]]:
    """Symplectic diagram cells with no diagram cell immediately south or east,
    each carrying its rank-matrix value."""
    return _corners(iota, symplectic_diagram(iota))


def odd_rank_constraint_holds(iota: FpfInvolution) -> bool:
    """Every symplectic-diagram box (i,j) with odd rank 2k+1 forces the rank
    at (i-1,i) to be at most 2k.  Holds for every valid involution; exposed as
    a test oracle."""
    rm = rank_matrix(iota)
    for (i, j) in symplectic_diagram(iota):
        r = rm[i - 1][j - 1]
        if r % 2 == 1 and rm[i - 2][i - 1] > r - 1:
            return False
    return True


def is_a_even(iota: FpfInvolution) -> bool:
    """Exactly one symplectic essential box, with an even rank condition."""
    boxes = symplectic_essential_boxes(iota)
    if len(boxes) != 1:
        return False
    (_, _, r), = boxes
    return r % 2 == 0


def is_a_odd(iota: FpfInvolution) -> bool:
    """Exactly two boxes: one at (p,p+1) with even rank 2r and one in row p+1
    with odd rank 2r+1."""
    boxes = sorted(symplectic_essential_boxes(iota))
    if len(boxes) != 2:
        return False
    (p, q, even), (i, _, odd) = boxes
    return (
        q == p + 1
        and i == p + 1
        and even % 2 == 0
        and odd == even + 1
    )


def in_basic_family(iota: FpfInvolution) -> bool:
    """Membership in the candidate basic set (even or odd family)."""
    return is_a_even(iota) or is_a_odd(iota)


class InfeasibleBox(ValueError):
    """No fixed-point-free involution realizes the requested essential set."""


def involution_of_ranks(ranks: Sequence[Sequence[int]]) -> FpfInvolution | None:
    """The fixed-point-free involution whose rank matrix is `ranks`, or None.
    Row i of a permutation's rank matrix steps up over row i-1 exactly from
    column p(i) on, so the word is read off and then checked."""
    ranks = tuple(map(tuple, ranks))
    word = tuple(
        next(itertools.compress(itertools.count(1), map(gt, row, above)), 0)
        for above, row in zip(((0,) * len(ranks),) + ranks, ranks)
    )
    try:
        iota = FpfInvolution(word)
    except ValueError:
        return None
    return iota if rank_matrix(iota) == ranks else None


def _rank_sweep(size: int, target: frozenset[tuple[int, int, int]]) -> list[list[int]]:
    """The rank matrix of `_with_boxes`, rows 1..size, by cap then sweep:
    each box and mirror (x, y, r) caps the columns 1..y of rows 1..x at r,
    then R[a][b] = min(cap, R[a-1][b] + 1, R[a][b-1] + 1) row by row, rounded
    down to even on the diagonal, with zero borders (so R[a][b] <= min(a, b)).
    Equal to the per-cell rule of `_with_boxes` for boxes inside the grid."""
    boxes = [(x, y, r) for i, j, r in target for x, y in ((i, j), (j, i))]
    # caps[a - 1]: row a's cap per column; rows with the same boxes share a list
    caps, cap = [], [size] * size
    for a in range(size, 0, -1):
        for x, y, r in boxes:
            if x == a:
                cap = [min(c, r) for c in cap[:y]] + cap[y:]
        caps.append(cap)
    caps.reverse()
    rows, above = [], [0] * size
    for a, cap in enumerate(caps, start=1):
        row, left = [], 0
        for b, c, up in zip(range(1, size + 1), cap, above):
            # one step east of the cell to the left or south of the one above
            left = left + 1 if left < up else up + 1
            if c < left:
                left = c
            if b == a and left % 2:
                left -= 1
            row.append(left)
        rows.append(row)
        above = row
    return rows


@lru_cache(maxsize=None)
def _with_boxes(n: int, target: frozenset[tuple[int, int, int]]) -> FpfInvolution:
    """The involution of size 2n whose symplectic essential set is `target`,
    by the rank rule: its rank matrix is the largest one that is at most
    r + (a-x)+ + (b-y)+ for each box (x, y, r) = (i, j, r) and its mirror
    (j, i, r), at most min(a, b), grows by at most one per step south or
    east, and is even on the diagonal (northwest blocks of an antisymmetric
    matrix).  The matrix is then read back as an involution and checked, so
    an unrealizable target raises InfeasibleBox.

    `_rank_sweep` evaluates the rule without a min over every box bound at
    every cell: it caps each box's north-west quadrant a <= x, b <= y at r
    and sweeps the step bounds once.  The two give the same matrix when every
    box lies in the grid, 1 <= x, y <= 2n:
    - The sweep is at least the rule: its cap at a cell is the bound of a box
      whose quadrant holds the cell, so each term of its min is at least one
      of the rule's, and rounding down to even keeps the order.
    - The sweep is at most the rule.  Inside a box's quadrant the cap is r,
      the box's bound there.  Outside it, say a > x, the cell above is in the
      grid and by induction at most r + (a-1-x)+ + (b-y)+, and one step
      south adds one, which is the bound at (a, b); b > y likewise.  The
      diagonal rounding only lowers values, so it keeps every such bound,
      and the borders give min(a, b).
    A box outside the grid breaks this: (0, y, -1) bounds row 1 by 0 and no
    quadrant of rows 1..2n holds it.  No involution has such a box, nor one
    with i >= j or r < 0, so those targets are refused before the sweep.
    """
    size = 2 * n
    if not all(1 <= i < j <= size and r >= 0 for i, j, r in target):
        raise InfeasibleBox(f"essential set {sorted(target)} has a box outside 1 <= i < j <= {size}, r >= 0")
    iota = involution_of_ranks(_rank_sweep(size, target))
    if iota is None or symplectic_essential_boxes(iota) != target:
        raise InfeasibleBox(f"no involution of size {size} has essential set {sorted(target)}")
    return iota


def construct_a_even(n: int, i: int, j: int, rank: int) -> FpfInvolution:
    """The involution of size 2n whose symplectic essential set is exactly
    {(i, j, rank)} with rank even, built by the rank rule of `_with_boxes`;
    raises InfeasibleBox when no involution has that essential set."""
    if rank % 2 != 0:
        raise InfeasibleBox("even family needs an even rank condition")
    return _with_boxes(n, frozenset({(i, j, rank)}))


def construct_a_odd(n: int, i: int, j: int, rank: int) -> FpfInvolution:
    """The involution of size 2n with exactly the boxes (i-1, i, rank-1) and
    (i, j, rank), rank odd, built by the rank rule of `_with_boxes`; raises
    InfeasibleBox when no involution has them (as for j = i + 1: a diagram
    cell on the superdiagonal always has even rank)."""
    if rank % 2 != 1:
        raise InfeasibleBox("odd family needs an odd rank condition")
    return _with_boxes(n, frozenset({(i - 1, i, rank - 1), (i, j, rank)}))


def basics_decomposition(iota: FpfInvolution) -> frozenset[FpfInvolution]:
    """The basic elements attached to iota's symplectic essential boxes.

    Even boxes contribute the single-box element with the same rank condition;
    an odd box at (i,j) with rank r contributes the two-box element with
    (i-1, i, r-1) and (i, j, r).  The greatest lower bound of the result is
    iota itself; for j_bar(n) the result is empty.
    """
    out = set()
    for (i, j, r) in symplectic_essential_boxes(iota):
        if r % 2 == 0:
            out.add(construct_a_even(iota.n, i, j, r))
        else:
            out.add(construct_a_odd(iota.n, i, j, r))
    return frozenset(out)


# ---------------------------------------------------------------------------
# poset plumbing: Hasse diagram and DOT export


@lru_cache(maxsize=None)
def hasse_diagram(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Sorted edges (lower word, upper word) of the opposite-Bruhat Hasse
    diagram at half-size n, for n <= MAX_HASSE_HALF (ValueError otherwise):
    the covers cost a conjugation per pair of outlets of every involution,
    so this is the one listing whose cost outgrows its output.

    Cached per size so concurrent readers are safe after the first
    (single-threaded) call.
    """
    if n > MAX_HASSE_HALF:
        raise ValueError(f"n={n} exceeds the Hasse diagram bound {MAX_HASSE_HALF}")
    edges = []
    for iota in enumerate_fpf(n):
        for upper in upper_covers(iota):
            edges.append((iota.word, upper.word))
    return tuple(sorted(edges))


def poset_dot(n: int) -> str:
    """DOT rendering of the opposite-Bruhat poset, ranked by word length;
    the Hasse diagram comes first, so an n it refuses lists nothing."""
    arrows = [f'  "{FpfInvolution(low)}" -> "{FpfInvolution(high)}";' for low, high in hasse_diagram(n)]
    lines = ["digraph fpf_poset {", "  rankdir=BT;"]
    by_length: dict[int, list[str]] = {}
    for iota in enumerate_fpf(n):
        name = str(iota)
        l = fpf_length(iota)
        by_length.setdefault(l, []).append(name)
        lines.append(f'  "{name}" [label="{name}\\nl={l}"];')
    for l, names in sorted(by_length.items()):
        joined = "; ".join(f'"{v}"' for v in names)
        lines.append(f"  {{ rank=same; {joined} }}")
    lines += arrows
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# ASCII wiring diagrams


def wiring_ascii(iota: FpfInvolution) -> str:
    """Render the arc diagram over 2n outlets.

    Arcs get distinct heights whenever their spans overlap (so crossings and
    nestings stay readable); the final line repeats the one-line word, which
    is what wiring_parse reads back.
    """
    arcs = sorted(iota.arcs, key=lambda a: (a[1] - a[0], a[0]))
    heights: dict[tuple[int, int], int] = {}
    for a, b in arcs:
        clash = [
            h
            for (x, y), h in heights.items()
            if not (y < a or b < x)
        ]
        h = 1
        while h in clash:
            h += 1
        heights[(a, b)] = h
    maxh = max(heights.values(), default=1)
    width = 2 * iota.size - 1
    col = lambda i: 2 * (i - 1)
    grid = [[" "] * width for _ in range(maxh)]
    for (a, b), h in heights.items():
        row = maxh - h
        grid[row][col(a)] = "."
        grid[row][col(b)] = "."
        for x in range(col(a) + 1, col(b)):
            grid[row][x] = "-"
        for r in range(row + 1, maxh):
            grid[r][col(a)] = "|"
            grid[r][col(b)] = "|"
    outlet_row = "".join(
        str((x // 2 + 1) % 10) if x % 2 == 0 else " " for x in range(width)
    )
    lines = ["".join(row).rstrip() for row in grid]
    lines.append(outlet_row)
    lines.append("word: " + ",".join(str(v) for v in iota.word))
    return "\n".join(lines)


def wiring_parse(text: str) -> FpfInvolution:
    """Inverse of wiring_ascii: recover the involution from the word line."""
    for line in text.splitlines():
        if line.startswith("word:"):
            return FpfInvolution.from_any(line.split(":", 1)[1])
    raise ValueError("no word line found in wiring diagram")
