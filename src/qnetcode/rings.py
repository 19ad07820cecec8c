"""Exact arithmetic in small finite rings and their additive-group structure.

Supported rings are modular rings Z(m), Galois fields GF(p^k), and finite
direct products of those. Every element is stored in a canonical coordinate
form: a tuple (c_1, ..., c_l) with 0 <= c_i < r_i, where (r_1, ..., r_l) is
the concatenation of the additive moduli of the factors. A Z(m) factor
contributes the single modulus m; a GF(p^k) factor contributes k copies of p
and its coordinates are the coefficients of the polynomial basis
{1, t, ..., t^(k-1)}, listed low degree first.

Descriptor grammar (whitespace ignored):

    ring    := factor ('x' factor)*
    factor  := 'Z(' m ')'
             | 'GF(' n ')' poly?          n = p^k, a prime power
             | 'GF(' p '^' k ')' poly?
    poly    := '[' c0 ',' c1 ',' ... ']'  monic, degree k, coefficients
                                          low degree first, values in [0, p)

When no polynomial is supplied for GF(p^k), the monic irreducible polynomial
of degree k whose coefficient tuple is smallest as a base-p integer is used
(for GF(4) that is t^2 + t + 1, written [1, 1, 1]).

Elements also carry a small-integer label: the mixed-radix value of the
coordinate tuple with the first coordinate most significant. For GF(4) the
labels 0, 1, 2, 3 name the elements 0, t, 1, t + 1. Note that for rings with
more than one coordinate the label 1 is not the ring one; coordinate lists
are the unambiguous spelling in instance files.

The additive group A = Z(r_1) x ... x Z(r_l) comes with the coordinate map
phi(x) = coords(x) and the bi-additive pairing

    character(y, z) = sum_i phi_i(y) * phi_i(z) / r_i   (mod 1),

returned as an exact fraction. A ring spec may carry a twisted phi: the
coordinate map composed with a fixed automorphism of A, stored as an integer
matrix that is block diagonal over equal-modulus positions.
`with_alternate_phi` builds one (a shift-and-shear on multi-coordinate
blocks, a unit scaling on singletons). The twist changes the pairing but
never the ring arithmetic itself.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache


class RingError(ValueError):
    """Bad ring descriptor, or operands from different rings."""


def frac_mod1(x: Fraction | int) -> Fraction:
    """Reduce an exact rational into [0, 1)."""
    return Fraction(x) % 1


# ---------------------------------------------------------------------------
# polynomial helpers over Z(p), coefficients low degree first


def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))

def _poly_mod(a: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    # mod must be monic
    a = list(a)
    deg_m = len(mod) - 1
    for i in range(len(a) - 1, deg_m - 1, -1):
        coef = a[i] % p
        if coef == 0:
            continue
        shift = i - deg_m
        for j, mj in enumerate(mod):
            a[shift + j] = (a[shift + j] - coef * mj) % p
    return _poly_trim(tuple(a))


def _poly_is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    k = len(poly) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    # trial division by every monic polynomial of degree 1 .. k//2
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = tail + (1,)
            if not _poly_mod(poly, divisor, p):
                return False
    return True


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_power(n: int) -> tuple[int, int]:
    for p in range(2, n + 1):
        if n % p == 0:
            k = 0
            m = n
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise RingError(f"{n} is not a prime power")
            return p, k
    raise RingError(f"{n} is not a prime power")


def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    # smallest monic degree-k polynomial, coefficient tuple read as a base-p
    # integer (low coordinate = low digit)
    for tail in itertools.product(range(p), repeat=k):
        poly = tuple(reversed(tail)) + (1,)
        if _poly_is_irreducible(poly, p):
            return poly
    raise RingError(f"no irreducible polynomial of degree {k} over Z({p})")


# ---------------------------------------------------------------------------
# ring factors


@dataclass(frozen=True)
class ZFactor:
    """The modular ring Z(m)."""

    modulus: int

    @property
    def moduli(self) -> tuple[int, ...]:
        return (self.modulus,)

    @property
    def one_coords(self) -> tuple[int, ...]:
        return (1 % self.modulus,)

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return ((a[0] * b[0]) % self.modulus,)

    def describe(self) -> str:
        return f"Z({self.modulus})"


@dataclass(frozen=True)
class GFFactor:
    """The field GF(p^k) with a fixed monic irreducible polynomial.

    Coordinates are the coefficients of 1, t, ..., t^(k-1); multiplication is
    polynomial multiplication reduced by `poly`.
    """

    p: int
    k: int
    poly: tuple[int, ...]  # length k + 1, monic, low degree first

    @property
    def moduli(self) -> tuple[int, ...]:
        return (self.p,) * self.k

    @property
    def one_coords(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.k - 1)

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        c = _poly_mod(_poly_mul(a, b, self.p), self.poly, self.p)
        return c + (0,) * (self.k - len(c))

    def describe(self) -> str:
        return f"GF({self.p}^{self.k})[{','.join(str(c) for c in self.poly)}]"


# ---------------------------------------------------------------------------
# ring spec and elements


@dataclass(frozen=True)
class RingSpec:
    """A finite ring together with its additive coordinate decomposition.

    `phi_rows` is the matrix of the coordinate map used by the character
    pairing: phi_i(x) = sum_j phi_rows[i][j] * coords[j] mod r_i. It must be
    an automorphism of the additive group, in particular zero wherever
    r_i != r_j; the identity gives the plain coordinate map.
    """

    factors: tuple[ZFactor | GFFactor, ...]
    phi_rows: tuple[tuple[int, ...], ...]

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        return tuple(m for f in self.factors for m in f.moduli)

    @cached_property
    def cardinality(self) -> int:
        n = 1
        for m in self.moduli:
            n *= m
        return n

    @cached_property
    def _factor_slices(self) -> tuple[slice, ...]:
        out = []
        start = 0
        for f in self.factors:
            width = len(f.moduli)
            out.append(slice(start, start + width))
            start += width
        return tuple(out)

    # -- element constructors

    def element(self, coords) -> "RingElem":
        coords = tuple(int(c) for c in coords)
        if len(coords) != len(self.moduli):
            raise RingError(
                f"expected {len(self.moduli)} coordinates, got {len(coords)}"
            )
        coords = tuple(c % m for c, m in zip(coords, self.moduli))
        return RingElem(self, coords)

    def zero(self) -> "RingElem":
        return RingElem(self, (0,) * len(self.moduli))

    def one(self) -> "RingElem":
        coords = tuple(c for f in self.factors for c in f.one_coords)
        return RingElem(self, coords)

    def from_int(self, label: int) -> "RingElem":
        """Element whose mixed-radix label (first coordinate most significant) is `label`."""
        if not 0 <= label < self.cardinality:
            raise RingError(f"label {label} out of range for {self}")
        coords = []
        for m in reversed(self.moduli):
            coords.append(label % m)
            label //= m
        return RingElem(self, tuple(reversed(coords)))

    def elements(self):
        for coords in itertools.product(*(range(m) for m in self.moduli)):
            yield RingElem(self, coords)

    # -- additive coordinate map

    def phi(self, x: "RingElem") -> tuple[int, ...]:
        if x.spec != self:
            raise RingError("element belongs to a different ring")
        c = x.coords
        return tuple(
            sum(t * cj for t, cj in zip(row, c)) % m
            for row, m in zip(self.phi_rows, self.moduli)
        )

    def with_alternate_phi(self) -> "RingSpec":
        """Twist phi by a fixed automorphism of the additive group.

        Positions sharing a modulus get a shift-and-shear map (for two
        positions: (c1, c2) -> (c1 + c2, c1)), which genuinely changes the
        character pairing; a unit scaling covers singleton positions. For
        Z(2) alone no nontrivial automorphism exists and the twist is the
        identity.
        """
        moduli = self.moduli
        width = len(moduli)
        groups: dict[int, list[int]] = {}
        for i, m in enumerate(moduli):
            groups.setdefault(m, []).append(i)
        rows = [[0] * width for _ in range(width)]
        for m, positions in groups.items():
            g = len(positions)
            if g == 1:
                i = positions[0]
                unit = next((u for u in range(2, m) if math.gcd(u, m) == 1), 1)
                rows[i][i] = unit
            else:
                # cyclic shift composed with a shear; determinant is a unit
                for a in range(g):
                    rows[positions[a]][positions[(a + 1) % g]] = 1
                rows[positions[0]][positions[0]] = (rows[positions[0]][positions[0]] + 1) % m
        return replace(self, phi_rows=tuple(tuple(r) for r in rows))

    def describe(self) -> str:
        return " x ".join(f.describe() for f in self.factors)

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class RingElem:
    """A ring element in canonical coordinate form."""

    spec: RingSpec
    coords: tuple[int, ...]

    def _check(self, other: "RingElem") -> None:
        if not isinstance(other, RingElem) or other.spec != self.spec:
            raise RingError("operands belong to different rings")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        coords = tuple(
            (a + b) % m for a, b, m in zip(self.coords, other.coords, self.spec.moduli)
        )
        return RingElem(self.spec, coords)

    def __neg__(self) -> "RingElem":
        coords = tuple((-a) % m for a, m in zip(self.coords, self.spec.moduli))
        return RingElem(self.spec, coords)

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        out: list[int] = []
        for f, sl in zip(self.spec.factors, self.spec._factor_slices):
            out.extend(f.mul(self.coords[sl], other.coords[sl]))
        return RingElem(self.spec, tuple(out))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def to_int(self) -> int:
        label = 0
        for c, m in zip(self.coords, self.spec.moduli):
            label = label * m + c
        return label

    def __repr__(self) -> str:
        return f"RingElem{self.coords}"


def character(y: RingElem, z: RingElem) -> Fraction:
    """Additive-group pairing of y and z, an exact rational mod 1.

    Bi-additive and symmetric; the denominator divides lcm of the moduli.
    """
    if y.spec != z.spec:
        raise RingError("operands belong to different rings")
    spec = y.spec
    py, pz = spec.phi(y), spec.phi(z)
    total = Fraction(0)
    for cy, cz, m in zip(py, pz, spec.moduli):
        if cy and cz:
            total += Fraction(cy * cz, m)
    return frac_mod1(total)


# ---------------------------------------------------------------------------
# vectors and matrices over a ring


@dataclass(frozen=True)
class RingVector:
    """A fixed-length tuple of ring elements (a message of width q)."""

    spec: RingSpec
    entries: tuple[RingElem, ...]

    @property
    def q(self) -> int:
        return len(self.entries)

    def __add__(self, other: "RingVector") -> "RingVector":
        if other.spec != self.spec or other.q != self.q:
            raise RingError("vector mismatch")
        return RingVector(
            self.spec, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def __neg__(self) -> "RingVector":
        return RingVector(self.spec, tuple(-a for a in self.entries))

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def to_index(self) -> int:
        """Basis index: entry labels combined big-endian (first entry highest)."""
        idx = 0
        n = self.spec.cardinality
        for e in self.entries:
            idx = idx * n + e.to_int()
        return idx

    def labels(self) -> tuple[int, ...]:
        return tuple(e.to_int() for e in self.entries)

    def __repr__(self) -> str:
        return f"RingVector{self.labels()}"


def vector_zero(spec: RingSpec, q: int) -> RingVector:
    return RingVector(spec, (spec.zero(),) * q)


def vector_from_labels(spec: RingSpec, labels) -> RingVector:
    return RingVector(spec, tuple(spec.from_int(int(v)) for v in labels))


def vector_from_index(spec: RingSpec, q: int, index: int) -> RingVector:
    n = spec.cardinality
    if not 0 <= index < n**q:
        raise RingError(f"basis index {index} out of range")
    labels = []
    for _ in range(q):
        labels.append(index % n)
        index //= n
    return vector_from_labels(spec, reversed(labels))


@lru_cache(maxsize=None)
def basis_vectors(spec: RingSpec, q: int) -> tuple[RingVector, ...]:
    """All RingVectors of width q in basis-index order."""
    return tuple(vector_from_index(spec, q, i) for i in range(spec.cardinality**q))


def vector_character(y: RingVector, z: RingVector) -> Fraction:
    """Pairing of vectors: the coordinate-wise pairings summed mod 1."""
    if y.spec != z.spec:
        raise RingError("operands belong to different rings")
    if y.q != z.q:
        raise RingError("vector length mismatch")
    total = Fraction(0)
    for a, b in zip(y.entries, z.entries):
        total += character(a, b)
    return frac_mod1(total)


@dataclass(frozen=True)
class RingMatrix:
    """A q x q coefficient matrix acting on RingVectors from the left."""

    spec: RingSpec
    rows: tuple[tuple[RingElem, ...], ...]

    @property
    def q(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def is_identity(self) -> bool:
        one, zero = self.spec.one(), self.spec.zero()
        return all(
            e == (one if i == j else zero)
            for i, row in enumerate(self.rows)
            for j, e in enumerate(row)
        )

    def __repr__(self) -> str:
        return f"RingMatrix({[[e.to_int() for e in row] for row in self.rows]})"


def matrix_from_rows(spec: RingSpec, rows) -> RingMatrix:
    rows = tuple(tuple(e for e in row) for row in rows)
    q = len(rows)
    if any(len(row) != q for row in rows):
        raise RingError("matrix is not square")
    return RingMatrix(spec, rows)


def identity_matrix(spec: RingSpec, q: int) -> RingMatrix:
    one, zero = spec.one(), spec.zero()
    return RingMatrix(
        spec, tuple(tuple(one if i == j else zero for j in range(q)) for i in range(q))
    )


def zero_matrix(spec: RingSpec, q: int) -> RingMatrix:
    zero = spec.zero()
    return RingMatrix(spec, ((zero,) * q,) * q)


def mat_vec(B: RingMatrix, v: RingVector) -> RingVector:
    """Left action B @ v over the ring."""
    if B.spec != v.spec:
        raise RingError("operands belong to different rings")
    if B.q != v.q:
        raise RingError(f"matrix is {B.q}x{B.q} but vector has length {v.q}")
    out = []
    for row in B.rows:
        acc = B.spec.zero()
        for coef, entry in zip(row, v.entries):
            acc = acc + coef * entry
        out.append(acc)
    return RingVector(v.spec, tuple(out))


def mat_mul(A: RingMatrix, B: RingMatrix) -> RingMatrix:
    if A.spec != B.spec or A.q != B.q:
        raise RingError("matrix mismatch")
    q = A.q
    zero = A.spec.zero()
    rows = []
    for i in range(q):
        row = []
        for j in range(q):
            acc = zero
            for t in range(q):
                acc = acc + A.rows[i][t] * B.rows[t][j]
            row.append(acc)
        rows.append(tuple(row))
    return RingMatrix(A.spec, tuple(rows))


def mat_add(A: RingMatrix, B: RingMatrix) -> RingMatrix:
    if A.spec != B.spec or A.q != B.q:
        raise RingError("matrix mismatch")
    rows = tuple(
        tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A.rows, B.rows)
    )
    return RingMatrix(A.spec, rows)


# ---------------------------------------------------------------------------
# descriptor parsing

_Z_RE = re.compile(r"^Z\((\d+)\)$")
_GF_RE = re.compile(r"^GF\((\d+)(?:\^(\d+))?\)(?:\[([0-9,]+)\])?$")


def _split_factors(text: str) -> list[str]:
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "x" and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _parse_factor(token: str) -> ZFactor | GFFactor:
    m = _Z_RE.match(token)
    if m:
        modulus = int(m.group(1))
        if modulus < 2:
            raise RingError(f"modulus must be at least 2, got {modulus}")
        return ZFactor(modulus)

    m = _GF_RE.match(token)
    if m:
        base = int(m.group(1))
        if m.group(2) is not None:
            p, k = base, int(m.group(2))
            if not _is_prime(p):
                raise RingError(f"GF base {p} is not prime")
            if k < 1:
                raise RingError("GF exponent must be positive")
        else:
            p, k = _prime_power(base)
        if m.group(3) is not None:
            coeffs = tuple(int(c) for c in m.group(3).split(","))
            if len(coeffs) != k + 1 or coeffs[-1] != 1:
                raise RingError(f"polynomial for GF({p}^{k}) must be monic of degree {k}")
            if any(not 0 <= c < p for c in coeffs):
                raise RingError(f"polynomial coefficients must lie in [0, {p})")
            if not _poly_is_irreducible(coeffs, p):
                raise RingError(f"polynomial {list(coeffs)} is reducible over Z({p})")
            poly = coeffs
        else:
            poly = _least_irreducible(p, k)
        return GFFactor(p, k, poly)

    raise RingError(f"cannot parse ring factor {token!r}")


def parse_ring_spec(text: str) -> RingSpec:
    """Parse a ring descriptor such as 'Z(2)', 'GF(4)', or 'Z(2)xZ(4)'."""
    compact = "".join(text.split())
    if not compact:
        raise RingError("empty ring descriptor")
    factors = tuple(_parse_factor(tok) for tok in _split_factors(compact))
    width = sum(len(f.moduli) for f in factors)
    identity_rows = tuple(
        tuple(1 if i == j else 0 for j in range(width)) for i in range(width)
    )
    return RingSpec(factors=factors, phi_rows=identity_rows)
