"""The four benchmark workloads.

Each workload function takes a seeded `random.Random` and returns the cases
of one pass.  A case is one verdict: `run` is the timed call into sporbits,
`check` compares its output with an oracle from `oracle.py` outside the
timed region and returns an error message, or None when the output is right.

Why these four (each one stresses a different layer):

* degeneration -- the Groebner write path: Buchberger under weight-refined
  and elimination orders, ideal_intersection and initial_ideal, through the
  in-process CLI as a user runs it.  The 14 catalog involutions are frozen
  here so that extending `orbit_ideal` does not change the workload; the seed
  sets only their order.
* km-normal-form -- the Groebner read path: one-shot normal forms of S-pairs
  against fixed generators under the lex antidiagonal order, no pair queue,
  no basis growth, no elimination.  All of S_5 plus the 24 permutations of
  S_6 that fix 1 and 2 (the seed sets the order).  A seeded sample of S_6
  would make the pass cost depend on the seed: per-case times there range
  from 0.006 s to 1.8 s and no cheap structural estimate predicts them.
* pfaffian-square -- polynomial arithmetic on large dicts and nothing else:
  pf^2 == det at sizes 2 and 4, pf at size 6 (720 terms) and its square
  (202,410 terms); this workload also sets the peak memory.
* combinatorics -- involutions, pairperms, permutations and the exact linear
  algebra of classify_orbit; the polynomial and Groebner kernel is idle, so a
  kernel change must leave it unchanged.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle
from sporbits import cli, involutions, pairperms, permutations, symplectic

DEGENERATION_WORDS = (
    "2143", "3412", "4321",
    "214365", "215634", "216543", "341265", "351624", "432165",
    "21436587", "21437856", "21563487", "34126587", "43216587",
)


@dataclass
class Case:
    id: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    #: phase timings the program itself reports, for cross-checking spans
    reported_timings: Callable[[object], dict] | None = None


def _fpf_words(n: int) -> list[tuple[int, ...]]:
    """All fixed-point-free involutions of 1..2n, generated here rather than
    by sporbits so that the inputs do not depend on the code under test."""

    def matchings(free):
        if not free:
            yield ()
            return
        first, rest = free[0], free[1:]
        for k, partner in enumerate(rest):
            for tail in matchings(rest[:k] + rest[k + 1:]):
                yield ((first, partner),) + tail

    words = []
    for arcs in matchings(tuple(range(1, 2 * n + 1))):
        word = [0] * (2 * n)
        for a, b in arcs:
            word[a - 1], word[b - 1] = b, a
        words.append(tuple(word))
    return words


def _stratified(items: list, k: int, rng: random.Random) -> list:
    """One item from each of k equal blocks of the list."""
    size = len(items) / k
    return [items[rng.randrange(round(i * size), round((i + 1) * size))] for i in range(k)]


def _word(w) -> str:
    return "".join(map(str, w))


def _evaluate(poly, values: list[int]) -> Fraction:
    """Value of a polynomial at integer values, one per variable in index
    order; integer arithmetic on the exponent tuples keeps the 202,410-term
    square cheap to check."""
    total = 0
    for mono, coeff in poly.terms.items():
        c = coeff.numerator if coeff.denominator == 1 else coeff
        total += c * math.prod(map(pow, values, mono))
    return Fraction(total)


# ---------------------------------------------------------------------------


def degeneration(rng: random.Random) -> list[Case]:
    words = list(DEGENERATION_WORDS)
    rng.shuffle(words)

    def run(word):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify-degeneration", "--iota", word, "--deep"])
        return code, buf.getvalue()

    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code} (3 = budget exhausted): {text[-200:]!r}"
        report = json.loads(text)
        return None if report.get("equal") is True else f"equal = {report.get('equal')!r}"

    def timings(out):
        return json.loads(out[1]).get("timings", {})

    return [
        Case(f"deg:{w}", lambda w=w: run(w), check, timings)
        for w in words
    ]


def km_normal_form(rng: random.Random) -> list[Case]:
    words = list(itertools.permutations(range(1, 6)))
    words += [(1, 2) + tail for tail in itertools.permutations(range(3, 7))]
    rng.shuffle(words)

    def check(verdict):
        return None if verdict is True else f"verdict {verdict!r}, Knutson-Miller says True"

    return [
        Case(
            f"km:{_word(w)}",
            lambda p=permutations.Permutation(w): symplectic.verify_knutson_miller(p),
            check,
        )
        for w in words
    ]


def pfaffian_square(rng: random.Random) -> list[Case]:
    points = {n: [oracle.random_invertible(2 * n, rng) for _ in range(2)] for n in (1, 2, 3)}
    state: dict[str, object] = {}

    def pf_matches_det(pf, n: int) -> str | None:
        """pf(M J M^T) = det(M) * pf(J), and pf(J) = 1 in this convention."""
        size = 2 * n
        identity = [int(i == j) for i in range(size) for j in range(size)]
        if _evaluate(pf, identity) != 1:
            return "pf(J) != 1"
        if symplectic.pfaffian(oracle.form_j(n)) != 1:
            return "numeric pf(J) != 1"
        for M in points[n]:
            if _evaluate(pf, [x for row in M for x in row]) != oracle.determinant(M):
                return f"pf(M J M^T) != det M at M = {M}"
        return None

    def small(n):
        def run():
            A = symplectic.build_mjmt(n)
            pf = symplectic.pfaffian(A)
            return pf, pf * pf == symplectic.determinant(A)

        def check(out):
            pf, equal = out
            return pf_matches_det(pf, n) or (None if equal is True else "pf^2 != det")

        return Case(f"pf-det:2n={2 * n}", run, check)

    def run_pf6():
        state["pf6"] = symplectic.pfaffian(symplectic.build_mjmt(3))
        return state["pf6"]

    def check_pf6(pf):
        return f"{len(pf.terms)} terms, expected 720" if len(pf.terms) != 720 else pf_matches_det(pf, 3)

    def run_square():
        pf = state.pop("pf6")
        return pf * pf

    def check_square(square):
        if len(square.terms) != 202_410:
            return f"{len(square.terms)} terms, expected 202410"
        M = points[3][0]
        if _evaluate(square, [x for row in M for x in row]) != oracle.determinant(M) ** 2:
            return "pf^2(M J M^T) != det(M)^2"
        return None

    return [
        small(1),
        small(2),
        Case("pf:2n=6", run_pf6, check_pf6),
        Case("pf-square:2n=6", run_square, check_square),
    ]


def combinatorics(rng: random.Random) -> list[Case]:
    cases = []
    for n in range(1, 6):
        def run(n=n):
            return [
                (i.word, involutions.fpf_length(i), permutations.length(i.permutation()))
                for i in involutions.enumerate_fpf(n)
            ]

        def check(rows, n=n):
            words = [w for w, _, _ in rows]
            if len(set(words)) != len(words) or len(words) != oracle.double_factorial(2 * n - 1):
                return f"{len(set(words))} distinct involutions, expected (2n-1)!!"
            for w, formula, length in rows:
                if not oracle.is_fpf_involution(w):
                    return f"{w} is not a fixed-point-free involution"
                if not formula == length == oracle.inversions(w):
                    return f"{_word(w)}: n+2c+4r = {formula}, length = {length}"
            return None

        cases.append(Case(f"length:2n={2 * n}", run, check))

    for w in _fpf_words(4):
        def run(w=w):
            iota = involutions.FpfInvolution(w)
            parts = involutions.basics_decomposition(iota)
            return [p.word for p in parts], involutions.glb(parts, n=4).word

        def check(out, w=w):
            parts, meet = out
            if meet != w:
                return f"glb of the basic elements is {_word(meet)}"
            ranks = oracle.rank_matrix(w)
            for p in parts:
                # iota <= p in the opposite order: p is below iota in Bruhat order
                rp = oracle.rank_matrix(p)
                if any(a < b for ra, rb in zip(rp, ranks) for a, b in zip(ra, rb)):
                    return f"basic element {_word(p)} is not above {_word(w)}"
            return None

        cases.append(Case(f"basics:{_word(w)}", run, check))

    for w in _fpf_words(3) + _stratified(_fpf_words(4), 5, rng):
        def run(w=w):
            return [p.word for p in pairperms.pair_permutations(involutions.FpfInvolution(w)).perms]

        def check(perms, w=w):
            c, r = oracle.crossings_and_nestings(w)
            if not perms:
                return "no pair permutations"
            for p in perms:
                if oracle.inversions(p) != c + 2 * r:
                    return f"{_word(p)} has length {oracle.inversions(p)}, expected c+2r = {c + 2 * r}"
                if not oracle.conjugates_jbar_to(p, w):
                    return f"{_word(p)} does not conjugate jbar to {_word(w)}"
            return None

        cases.append(Case(f"pairperms:{_word(w)}", run, check))

    for n, w in [(3, w) for w in _fpf_words(3)] + [(4, w) for w in _stratified(_fpf_words(4), 15, rng)]:
        size = 2 * n
        M = oracle.matmul(
            oracle.matmul(oracle.random_borel(size, rng), oracle.orbit_representative(w)),
            oracle.random_symplectic(n, rng),
        )

        def check(got, w=w):
            return None if got == w else f"classified as {_word(got)}"

        cases.append(Case(f"classify:{_word(w)}", lambda M=M: symplectic.classify_orbit(M).word, check))
    return cases


WORKLOADS = {
    "degeneration": degeneration,
    "km-normal-form": km_normal_form,
    "pfaffian-square": pfaffian_square,
    "combinatorics": combinatorics,
}

#: ROADMAP baseline row per workload, to compare the first results against:
#: (what, ROADMAP figure, which case ids, how their times combine)
BASELINES = {
    "degeneration": (
        "verify_degeneration(216543, deep)", "8.9 s",
        lambda cid: cid == "deg:216543", sum,
    ),
    "km-normal-form": (
        "verify_knutson_miller on all of S_5", "1.2-1.5 s",
        lambda cid: cid.startswith("km:") and len(cid) == len("km:12345"), sum,
    ),
    "pfaffian-square": (
        "pf*pf at size 6", "6.5 s",
        lambda cid: cid == "pf-square:2n=6", sum,
    ),
    "combinatorics": (
        "pair_permutations per call at 2n = 8", "0.23 s",
        lambda cid: cid.startswith("pairperms:") and len(cid) == len("pairperms:12345678"),
        statistics.mean,
    ),
}
