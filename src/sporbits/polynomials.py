"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a dict from packed monomials to coefficients.  A monomial
packs into one int: one FIELD_BITS-wide big-endian field per variable, in
VariableSet index order, whose top bit is a guard.  So exponents run up to
MAX_EXPONENT, multiplying two monomials is one int addition, and a product
whose exponent overflows sets a guard bit and raises ValueError.
Coefficients are ints when integral and Fractions otherwise, and zero
coefficients are never stored, so equal polynomials compare equal
structurally.  `Polynomial.terms` shows the same terms as a read-only
mapping from exponent tuples to Fractions.  The textual format is
`-3/2*m[1,2]*m[2,1]^2`, terms joined by `+`/`-`.
"""

from __future__ import annotations

import re
import struct
from collections.abc import ItemsView, Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction

Monomial = tuple[int, ...]
FIELD_BITS = 32
MAX_EXPONENT = (1 << FIELD_BITS - 1) - 1


@dataclass(frozen=True)
class VariableSet:
    """An ordered list of variable names with a deterministic global index.

    Matrix variables are laid out row-major as m[1,1] ... m[N,N]; a set with
    a matrix_size may list further names after them.
    """

    names: tuple[str, ...]
    matrix_size: int = 0
    index: dict = field(init=False, repr=False, compare=False, hash=False)
    packer: struct.Struct = field(init=False, repr=False, compare=False, hash=False)
    guards: int = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        object.__setattr__(self, "index", {nm: k for k, nm in enumerate(self.names)})
        packer = struct.Struct(f">{len(self.names)}I")
        object.__setattr__(self, "packer", packer)
        guards = packer.pack(*[MAX_EXPONENT + 1] * len(self.names))
        object.__setattr__(self, "guards", int.from_bytes(guards, "big"))

    @staticmethod
    def matrix(n: int) -> "VariableSet":
        names = tuple(f"m[{i},{j}]" for i in range(1, n + 1) for j in range(1, n + 1))
        return VariableSet(names, matrix_size=n)

    @staticmethod
    def named(*names: str) -> "VariableSet":
        return VariableSet(tuple(names))

    def __len__(self) -> int:
        return len(self.names)

    def matrix_var(self, i: int, j: int) -> int:
        """Global index of m[i,j] (1-based matrix coordinates)."""
        n = self.matrix_size
        if not n:
            raise ValueError("not a matrix variable set")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"m[{i},{j}] is outside the {n}x{n} matrix")
        return (i - 1) * n + (j - 1)

    def pack(self, mono: Monomial) -> int:
        """The packed key of an exponent tuple, which must hold one exponent
        in 0..MAX_EXPONENT per variable."""
        try:
            key = int.from_bytes(self.packer.pack(*mono), "big")
        except struct.error:
            key = None
        if key is None or key & self.guards:
            raise ValueError(f"not {len(self)} exponents in 0..{MAX_EXPONENT}: {mono!r}")
        return key

    def unpack(self, key: int) -> Monomial:
        return self.packer.unpack(key.to_bytes(self.packer.size, "big"))


def _exact(value) -> int | Fraction:
    """A coefficient as stored: an int when integral, else a Fraction."""
    if isinstance(value, str):
        value = Fraction(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return value
    raise TypeError(f"not an exact coefficient: {value!r}")


def _fraction(c: int | Fraction) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


class Terms(Mapping):
    """Read-only view of a polynomial's terms: exponent tuple -> Fraction,
    in insertion order, unpacked lazily."""

    __slots__ = ("_vs", "_packed")

    def __init__(self, vs: VariableSet, packed: dict):
        self._vs, self._packed = vs, packed

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self):
        return map(self._vs.unpack, self._packed)

    def __getitem__(self, mono: Monomial) -> Fraction:
        try:
            return _fraction(self._packed[self._vs.pack(mono)])
        except ValueError:
            raise KeyError(mono) from None

    def items(self):
        return _TermItems(self)


class _TermItems(ItemsView):
    def __iter__(self):
        unpack = self._mapping._vs.unpack
        for key, c in self._mapping._packed.items():
            yield unpack(key), _fraction(c)


class Polynomial:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("vs", "_packed", "_hash")

    def __init__(self, vs: VariableSet, terms: Mapping[Monomial, Fraction] | None = None):
        packed = {}
        for mono, coeff in (terms or {}).items():
            c = _exact(coeff)
            if c:
                packed[vs.pack(mono)] = c
        self.vs, self._packed, self._hash = vs, packed, None

    @classmethod
    def _of(cls, vs: VariableSet, packed: dict) -> "Polynomial":
        """Wrap a packed dict that has no zero coefficient, without a copy."""
        p = object.__new__(cls)
        p.vs, p._packed, p._hash = vs, packed, None
        return p

    @property
    def terms(self) -> Terms:
        return Terms(self.vs, self._packed)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(vs: VariableSet) -> "Polynomial":
        return Polynomial(vs)

    @staticmethod
    def constant(vs: VariableSet, value) -> "Polynomial":
        c = _exact(value)
        return Polynomial._of(vs, {0: c} if c else {})

    @staticmethod
    def variable(vs: VariableSet, name_or_index) -> "Polynomial":
        idx = (
            name_or_index
            if isinstance(name_or_index, int)
            else vs.index[name_or_index]
        )
        if not 0 <= idx < len(vs):
            raise ValueError(f"no variable {idx} among {len(vs)}")
        return Polynomial._of(vs, {1 << FIELD_BITS * (len(vs) - 1 - idx): 1})

    @staticmethod
    def matrix_entry(vs: VariableSet, i: int, j: int) -> "Polynomial":
        return Polynomial.variable(vs, vs.matrix_var(i, j))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._packed

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.vs.names == other.vs.names
            and self._packed == other._packed
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vs.names, frozenset(self._packed.items())))
        return self._hash

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.vs.names != self.vs.names:
                raise ValueError("mixed variable sets")
            return other
        return Polynomial.constant(self.vs, other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out = dict(self._packed)
        get = out.get
        for key, coeff in other._packed.items():
            c = get(key, 0) + coeff
            if c:
                out[key] = c
            else:
                del out[key]
        return Polynomial._of(self.vs, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.vs, {k: -c for k, c in self._packed.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out: dict[int, int | Fraction] = {}
        get = out.get
        right = other._packed.items()
        for k1, c1 in self._packed.items():
            for k2, c2 in right:
                key = k1 + k2
                c = get(key, 0) + c1 * c2
                if c:
                    out[key] = c
                else:
                    del out[key]
        guards = self.vs.guards
        if any(key & guards for key in out):
            raise ValueError(f"a product has an exponent above {MAX_EXPONENT}")
        return Polynomial._of(self.vs, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.vs, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def scale(self, c) -> "Polynomial":
        c = _exact(c)
        return Polynomial._of(self.vs, {k: c * v for k, v in self._packed.items()} if c else {})

    def evaluate(self, values: Iterable) -> Fraction:
        """Exact evaluation: one rational value per variable, in index order."""
        vals = [_exact(v) for v in values]
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            prod = coeff
            for idx, e in enumerate(mono):
                if e:
                    prod *= vals[idx] ** e
            total += prod
        return total

    # -- text format ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._packed:
            return "0"
        parts = []
        # by degree, then exponent tuple, both descending: keys order as tuples do
        unpack = self.vs.unpack
        for _, _, mono, coeff in sorted((-sum(m), -k, m, c) for k, c in self._packed.items() for m in [unpack(k)]):
            factors = []
            for idx, e in enumerate(mono):
                if e == 1:
                    factors.append(self.vs.names[idx])
                elif e > 1:
                    factors.append(f"{self.vs.names[idx]}^{e}")
            body = "*".join(factors)
            mag = abs(coeff)
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            parts.append(("-" if coeff < 0 else "+") + piece)
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text

    __repr__ = __str__


_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z_0-9]*(?:\[[0-9]+(?:,[0-9]+)*\])?)(?:\^(?P<exp>[0-9]+))?$")


def parse_polynomial(vs: VariableSet, text: str) -> Polynomial:
    """Parse the textual format emitted by str(Polynomial)."""
    text = text.replace(" ", "")
    if not text or text == "0":
        return Polynomial.zero(vs)
    terms: dict[Monomial, Fraction] = {}
    for chunk in _TERM_SPLIT.split(text):
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = Fraction(-1)
            chunk = chunk[1:]
        coeff = sign
        expo = [0] * len(vs)
        for factor in chunk.split("*"):
            if re.fullmatch(r"[0-9]+(/[0-9]+)?", factor):
                coeff *= Fraction(factor)
                continue
            m = _FACTOR.match(factor)
            if not m or m.group("name") not in vs.index:
                raise ValueError(f"cannot parse factor {factor!r}")
            expo[vs.index[m.group("name")]] += int(m.group("exp") or 1)
        mono = tuple(expo)
        c = terms.get(mono, Fraction(0)) + coeff
        if c:
            terms[mono] = c
        else:
            terms.pop(mono, None)
    return Polynomial(vs, terms)
