"""Exterior algebra over a finite ordered coframe.

A form is a sparse sum of coefficient * blade, where a blade is a strictly
increasing tuple of coframe indices stored as a bitmask (dims up to 16).
Coefficients live in one of two scalar rings: exact rationals, where a zero
coefficient is dropped, or float64, where a coefficient may also be an array
over a sample axis and none is dropped.  An exact coefficient is a Python
int, and a `Fraction` only where the value is not integral, so the products
that certificates spend their time in are integer products; the values leave
the ring as `Fraction` at `top_coefficient` and `top_pairing`.
The listed coframe order fixes the orientation: the wedge of all covectors
in listed order is the positive volume form, and every sign reported by
`top_coefficient` or `top_pairing` is relative to that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MAX_DIM = 16


class ScalarRing:
    """A coefficient ring; the base class is the exact-rational one."""

    def __init__(self, kind: str):
        self.kind = kind

    @property
    def exact(self) -> bool:
        return self.kind == "exact-rational"

    def coerce(self, x):
        """An int for an integral value, else a `Fraction`."""
        if type(x) is int:
            return x
        if isinstance(x, float):
            raise TypeError("float coefficient in exact-rational ring")
        x = Fraction(x)
        return int(x.numerator) if x.denominator == 1 else x

    def report(self, x):
        """A coefficient as it leaves the ring: exact values as `Fraction`."""
        return Fraction(x)

    def is_zero(self, x) -> bool:
        return x == 0

    def __repr__(self):
        return f"ScalarRing({self.kind!r})"


class _Float64Ring(ScalarRing):
    """float64 coefficients: one float, or one float64 array per blade.

    An array holds the coefficient at every point of a sample axis, so the
    unchanged wedge code evaluates a whole grid in one pass.  No blade is
    dropped, not even one whose coefficient is zero: the sums then run in
    an order that does not depend on the values, and each element of a grid
    gets the same IEEE operations as its own scalar evaluation.
    """

    def coerce(self, x):
        if isinstance(x, np.ndarray):
            return x.astype(float, copy=False)
        return float(x)

    report = coerce

    def is_zero(self, x) -> bool:
        return False


EXACT = ScalarRing("exact-rational")
FLOAT64 = _Float64Ring("float64")


@dataclass(frozen=True)
class Coframe:
    """Ordered labels of the covector basis; the order is the orientation."""

    names: tuple

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not 1 <= len(names) <= MAX_DIM:
            raise ValueError(f"coframe dimension must be 1..{MAX_DIM}")
        if len(set(names)) != len(names):
            raise ValueError("coframe names must be distinct")

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def volume_mask(self) -> int:
        return (1 << self.dim) - 1

    def index(self, name: str) -> int:
        return self.names.index(name)


def blade_mask(indices) -> int:
    mask = 0
    for i in indices:
        bit = 1 << i
        if mask & bit:
            raise ValueError("repeated index in blade")
        mask |= bit
    return mask


def mask_blade(mask: int) -> tuple:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _wedge_sign(ma: int, mb: int) -> int:
    # parity of crossings when sorting blade(ma) ++ blade(mb)
    total = 0
    m = mb
    while m:
        j = (m & -m).bit_length() - 1
        total += (ma >> (j + 1)).bit_count()
        m &= m - 1
    return -1 if total & 1 else 1


class Form:
    """Homogeneous exterior form with sparse blade storage."""

    __slots__ = ("coframe", "degree", "ring", "terms")

    def __init__(self, coframe: Coframe, degree: int, terms=None, ring=EXACT):
        if not 0 <= degree <= coframe.dim:
            raise ValueError("degree out of range")
        self.coframe = coframe
        self.degree = degree
        self.ring = ring
        dim = coframe.dim
        clean = {}
        for mask, c in (terms or {}).items():
            if mask.bit_count() != degree:
                raise ValueError("blade length does not match degree")
            if mask >> dim:
                raise ValueError("blade index out of coframe range")
            c = ring.coerce(c)
            if not ring.is_zero(c):
                clean[mask] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, coframe, value, ring=EXACT):
        return cls(coframe, 0, {0: value}, ring)

    @classmethod
    def covector(cls, coframe, name_or_index, ring=EXACT):
        i = name_or_index
        if isinstance(i, str):
            i = coframe.index(i)
        return cls(coframe, 1, {1 << i: 1}, ring)

    # -- ring / coframe guards --------------------------------------------

    def _check_compatible(self, other):
        if self.coframe != other.coframe:
            raise ValueError("coframe mismatch")
        if self.ring.kind != other.ring.kind:
            raise ValueError("scalar ring mismatch")

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        if self.degree != other.degree:
            raise ValueError("degree mismatch in form addition")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Form(self.coframe, self.degree, terms, self.ring)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Form(
            self.coframe, self.degree, {m: -c for m, c in self.terms.items()},
            self.ring,
        )

    def __rmul__(self, scalar):
        scalar = self.ring.coerce(scalar)
        return Form(
            self.coframe, self.degree,
            {m: scalar * c for m, c in self.terms.items()}, self.ring,
        )

    def __mul__(self, scalar):
        return self.__rmul__(scalar)

    def __eq__(self, other):
        return (
            isinstance(other, Form)
            and self.coframe == other.coframe
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.coframe, self.degree, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not any(np.any(c != 0) for c in self.terms.values())

    # -- products ------------------------------------------------------------

    def wedge(self, other) -> "Form":
        self._check_compatible(other)
        deg = self.degree + other.degree
        if deg > self.coframe.dim:
            raise ValueError("degree overflow in wedge")
        terms = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                if ma & mb:
                    continue
                m = ma | mb
                c = ca * cb
                if _wedge_sign(ma, mb) < 0:
                    c = -c
                terms[m] = terms.get(m, 0) + c
        return Form(self.coframe, deg, terms, self.ring)

    def powers(self, k: int) -> list:
        """The ladder [1, a, a^2, ..., a^k], one wedge per step."""
        if k < 0:
            raise ValueError("negative wedge power")
        if k and self.degree % 2:
            raise ValueError("wedge power requires even degree")
        if k * self.degree > self.coframe.dim:
            raise ValueError("degree overflow in power")
        out = [Form.scalar(self.coframe, 1, self.ring)]
        for _ in range(k):
            out.append(out[-1].wedge(self))
        return out

    def power(self, k: int) -> "Form":
        return self.powers(k)[k]

    # -- extraction -----------------------------------------------------------

    def top_coefficient(self):
        if self.degree != self.coframe.dim:
            raise ValueError("top_coefficient requires a top-degree form")
        return self.ring.report(self.terms.get(self.coframe.volume_mask, 0))

    def top_pairing(self, other):
        """The top coefficient of self ^ other, without building the product.

        Each blade of self meets only its complement in other; the pairs
        are summed in the order `wedge` sums them into the volume blade.
        """
        self._check_compatible(other)
        if self.degree + other.degree != self.coframe.dim:
            raise ValueError("top_pairing requires complementary degrees")
        vol = self.coframe.volume_mask
        found = other.terms
        total = 0
        for ma, ca in self.terms.items():
            mb = vol ^ ma
            if mb in found:
                c = ca * found[mb]
                if _wedge_sign(ma, mb) < 0:
                    c = -c
                total = total + c
        return self.ring.report(total)

    def shifted(self, coframe: Coframe, offset: int) -> "Form":
        """The same form on `coframe`, covector i moved to slot i + offset."""
        terms = {m << offset: c for m, c in self.terms.items()}
        return Form(coframe, self.degree, terms, self.ring)

    def to_float(self) -> "Form":
        if not self.ring.exact:
            return self
        return Form(
            self.coframe, self.degree,
            {m: float(c) for m, c in self.terms.items()}, FLOAT64,
        )

    def sup_norm(self) -> float:
        return max((abs(float(c)) for c in self.terms.values()), default=0.0)

    def __repr__(self):
        if not self.terms:
            return f"Form(0; deg={self.degree})"
        bits = []
        for m in sorted(self.terms):
            blade = "∧".join(self.coframe.names[i] for i in mask_blade(m)) or "1"
            bits.append(f"({self.terms[m]})·{blade}")
        return " + ".join(bits)


@dataclass(frozen=True)
class VectorElem:
    """Element of the dual basis: coordinates against the coframe."""

    coframe: Coframe
    coords: tuple

    def __post_init__(self):
        coords = tuple(self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) != self.coframe.dim:
            raise ValueError("vector length does not match coframe dimension")


def interior_product(v: VectorElem, a: Form) -> Form:
    """Contraction with v; antiderivation of degree -1."""
    if a.degree < 1:
        raise ValueError("interior product needs degree >= 1")
    if v.coframe != a.coframe:
        raise ValueError("coframe mismatch")
    coords = [a.ring.coerce(c) for c in v.coords]
    terms = {}
    for mask, c in a.terms.items():
        sign = 1
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            if coords[i] != 0:
                newm = mask ^ (1 << i)
                val = c * coords[i]
                if sign < 0:
                    val = -val
                terms[newm] = terms.get(newm, 0) + val
            sign = -sign
            m &= m - 1
    return Form(a.coframe, a.degree - 1, terms, a.ring)

