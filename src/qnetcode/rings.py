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
(for GF(4) that is t^2 + t + 1, written [1, 1, 1]). Orders p^k up to 2^64
are supported: p is tested by Miller-Rabin, irreducibility by Ben-Or's test,
and the search stops after GF_SEARCH_LIMIT candidates.

An element is its label, a small integer: the mixed-radix value of the
coordinate tuple with the first coordinate most significant (`coords_label`,
inverted by `entry_coords`). For GF(4) the labels 0, 1, 2, 3 name the
elements 0, t, 1, t + 1. Note that for rings with
more than one coordinate the label 1 is not the ring one; coordinate lists
are the unambiguous spelling in instance files.

The additive group A = Z(r_1) x ... x Z(r_l) comes with the coordinate map
phi(x) = coords(x) and the bi-additive pairing

    character(y, z) = sum_i phi_i(y) * phi_i(z) / r_i   (mod 1).

A ring spec may carry a twisted phi: the coordinate map composed with a
fixed automorphism of A, stored as an integer matrix that is block diagonal
over equal-modulus positions. `with_alternate_phi` builds one (a
shift-and-shear on multi-coordinate blocks, a unit scaling on singletons).
The twist changes the pairing but never the ring arithmetic itself.

Every value is a plain integer or integer array. The factors multiply
coordinate tuples (`mul`) only to build each coefficient block once:

- A width-q register value (q entries) is its basis label, the mixed-radix
  integer over the digit moduli `moduli * q` whose digits are the entries'
  coordinates, first entry and first coordinate most significant.
- A q x q coefficient matrix B is the integer matrix G of its action on
  those digits: row (j, t) holds the digits of B applied to the t-th
  coordinate unit in slot j. Then B x has digits digits(x) @ G, composition
  B C has matrix G_C @ G_B, and B + C has G_B + G_C, all reduced mod the
  digit moduli.
- The character is one bilinear form: with L = lcm(moduli) (`exponent`),
  L * character(y, z) = digits(y) @ K @ digits(z) mod L for the integer
  matrix K = phi^T diag(L / r_i) phi, so phases are exact integers mod L.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np


GF_ORDER_LIMIT = 2**64
GF_SEARCH_LIMIT = 4096


class RingError(ValueError):
    """Bad ring descriptor, or operands from different rings."""


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
    # mod must be nonzero and trimmed; p prime
    a = list(a)
    deg_m = len(mod) - 1
    inv = pow(mod[-1], -1, p)
    for i in range(len(a) - 1, deg_m - 1, -1):
        coef = a[i] * inv % p
        if coef == 0:
            continue
        shift = i - deg_m
        for j, mj in enumerate(mod):
            a[shift + j] = (a[shift + j] - coef * mj) % p
    return _poly_trim(tuple(a))


def _poly_is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test: a degree-k polynomial over Z(p) is irreducible iff it
    shares no factor with x^(p^i) - x for i = 1 .. k // 2."""
    k = len(poly) - 1
    if k < 1:
        return False
    power = (0, 1)
    for _ in range(k // 2):
        # power <- power^p mod poly, by squaring and multiplying
        base, power, e = power, (1,), p
        while e:
            if e & 1:
                power = _poly_mod(_poly_mul(power, base, p), poly, p)
            base, e = _poly_mod(_poly_mul(base, base, p), poly, p), e >> 1
        # Euclid on poly and power - x
        a, b = poly, _poly_trim(tuple((c - (i == 1)) % p for i, c in enumerate(power + (0, 0))))
        while b:
            a, b = b, _poly_mod(a, b, p)
        if len(a) > 1:
            return False
    return True


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, exact for n < 3 * 10^23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or n % 2 == 0 or n in bases:
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or n - 1 in (pow(a, d << i, n) for i in range(s)) for a in bases)


def _prime_power(n: int) -> tuple[int, int]:
    # the largest k with a prime k-th root; below 2^64 rounding the float root finds any exact one
    for k in range(n.bit_length(), 0, -1):
        p = round(n ** (1 / k)) if k > 1 else n
        if p**k == n and _is_prime(p):
            return p, k
    raise RingError(f"{n} is not a prime power")


def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    # smallest monic degree-k polynomial, coefficient tuple read as a base-p
    # integer (low coordinate = low digit), among the first candidates
    for n in range(min(p**k, GF_SEARCH_LIMIT)):
        poly = tuple(n // p**i % p for i in range(k)) + (1,)
        if _poly_is_irreducible(poly, p):
            return poly
    raise RingError(
        f"no irreducible polynomial of degree {k} over Z({p}) among the first "
        f"{GF_SEARCH_LIMIT} candidates; give one as GF({p}^{k})[c0,...,c{k}]"
    )


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

    def __hash__(self) -> int:
        # ring-keyed caches hash the spec on every lookup; its fields are hashed once
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.factors, self.phi_rows))

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        return tuple(m for f in self.factors for m in f.moduli)

    @cached_property
    def cardinality(self) -> int:
        return math.prod(self.moduli)

    @cached_property
    def exponent(self) -> int:
        """lcm of the moduli: every character value is a multiple of 1 / exponent."""
        return math.lcm(*self.moduli)

    @cached_property
    def _factor_slices(self) -> tuple[slice, ...]:
        out = []
        start = 0
        for f in self.factors:
            width = len(f.moduli)
            out.append(slice(start, start + width))
            start += width
        return tuple(out)

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


# ---------------------------------------------------------------------------
# registers as integer labels, coefficient matrices as integer matrices


def _dtype(spec: RingSpec):
    # int64 is exact while products of two digits, summed a few thousand
    # times, stay below 2^63; larger moduli get Python integers
    return np.int64 if max(spec.moduli) < 2**24 else object


def _radix(spec: RingSpec, q: int) -> np.ndarray:
    return np.array(spec.moduli * q, dtype=_dtype(spec))


def place_values(radix) -> np.ndarray:
    """Place values of mixed-radix digits, first digit most significant."""
    places = [1] * len(radix)
    for i in range(len(radix) - 2, -1, -1):
        places[i] = places[i + 1] * radix[i + 1]
    return np.array(places, dtype=np.int64)


def label_digits(spec: RingSpec, q: int, labels) -> np.ndarray:
    """The q * l digits of every register label: shape labels.shape + (q * l,)."""
    rest = np.asarray(labels, dtype=np.int64)
    if rest.size and not 0 <= rest.min() <= rest.max() < spec.cardinality**q:
        raise RingError(f"register label out of range for width {q} over {spec}")
    radix = spec.moduli * q
    out = np.empty(rest.shape + (len(radix),), dtype=np.int64)
    for i in range(len(radix) - 1, -1, -1):
        rest, out[..., i] = np.divmod(rest, radix[i])
    return out


def coords_label(spec: RingSpec, coords) -> int:
    """Label of the element with these coordinates, first coordinate most significant."""
    label = 0
    for c, m in zip(coords, spec.moduli, strict=True):
        label = label * m + int(c)
    return label


def entry_coords(spec: RingSpec, label: int) -> tuple[int, ...]:
    """Coordinates of the element with this label."""
    label = int(label)
    if not 0 <= label < spec.cardinality:
        raise RingError(f"element label {label} out of range for {spec}")
    coords = []
    for m in reversed(spec.moduli):
        label, c = divmod(label, m)
        coords.append(c)
    return tuple(reversed(coords))


def register_label(spec: RingSpec, entries) -> int:
    """Label of the register holding these element labels, first entry most significant."""
    label = 0
    for e in entries:
        if not 0 <= e < spec.cardinality:
            raise RingError(f"element label {e} out of range for {spec}")
        label = label * spec.cardinality + int(e)
    return label


def register_entries(spec: RingSpec, q: int, label: int) -> tuple[int, ...]:
    """Element labels of the q entries of a register label."""
    out = []
    for _ in range(q):
        label, entry = divmod(int(label), spec.cardinality)
        out.append(entry)
    return tuple(reversed(out))


@lru_cache(maxsize=1024)
def _entry_block(spec: RingSpec, label: int) -> np.ndarray:
    """Read-only width x width block of one entry: row t holds the
    coordinates of the entry times the t-th coordinate unit."""
    entry, width = entry_coords(spec, label), len(spec.moduli)
    units = np.eye(width, dtype=np.int64).tolist()
    rows = [
        [c for f, sl in zip(spec.factors, spec._factor_slices) for c in f.mul(entry[sl], tuple(u[sl]))]
        for u in units
    ]
    block = np.array(rows, dtype=_dtype(spec))
    block.flags.writeable = False
    return block


def coefficient_matrix(spec: RingSpec, rows) -> np.ndarray:
    """Integer matrix G of a q x q matrix B of element labels, acting on register digits.

    Row (j, t) holds the digits of B applied to the t-th coordinate unit in
    slot j, so B x has the digits of digits(x) @ G reduced mod the radix.
    Each distinct entry's block is computed once per process.
    """
    blocks = [[_entry_block(spec, row[j]) for row in rows] for j in range(len(rows))]
    return np.concatenate([np.concatenate(band, axis=1) for band in blocks])


def matrix_entries(spec: RingSpec, g: np.ndarray) -> list[list[int]]:
    """Element labels of B's entries: B[i][j] is slot i of B applied to one in slot j."""
    width, q = len(spec.moduli), len(g) // len(spec.moduli)
    one = np.array([c for f in spec.factors for c in f.one_coords])
    block = lambda j, i: g[j * width : (j + 1) * width, i * width : (i + 1) * width]
    entry = lambda j, i: [c % m for c, m in zip(one @ block(j, i), spec.moduli)]
    return [[coords_label(spec, entry(j, i)) for j in range(q)] for i in range(q)]


def is_zero(g: np.ndarray) -> bool:
    return not g.any()


def is_identity(g: np.ndarray) -> bool:
    return bool((g == np.eye(len(g), dtype=np.int64)).all())


def combine(spec: RingSpec, q: int, coeffs, gammas) -> np.ndarray:
    """Matrices of x -> sum_j coeffs[i][j] @ (gammas[j][p] @ x), shape (i, p, ...):
    every output i at once, from one stack p of matrices per input j. B after
    C has the matrix G_C @ G_B; each product is reduced mod the radix, so
    int64 stays exact."""
    radix = _radix(spec, q)
    products = np.asarray(gammas)[None] @ np.asarray(coeffs)[:, :, None] % radix
    return products.sum(axis=1) % radix


def linear_map(spec: RingSpec, q: int, coeffs, inputs) -> np.ndarray:
    """Labels of out_i = sum_j coeffs[i][j] @ inputs[j], for label arrays
    `inputs` broadcast together; the output axis is last."""
    radix = spec.moduli * q
    n, m, width = len(coeffs), len(inputs), len(radix)
    g = np.asarray(coeffs)
    if g.shape != (n, m, width, width):
        raise RingError(f"need {n}x{m} coefficient matrices acting on width {q} over {spec}")
    # input j's digits times the blocks that map input j into every output
    y = sum(
        label_digits(spec, q, v) @ g[:, j].transpose(1, 0, 2).reshape(width, n * width)
        for j, v in enumerate(inputs)
    )
    return y.reshape(y.shape[:-1] + (n, width)) % _radix(spec, q) @ place_values(radix)


def character_form(spec: RingSpec, q: int) -> np.ndarray:
    """Integer matrix K with L * character(y, z) = digits(y) @ K @ digits(z) mod L,
    where L = spec.exponent; K is phi^T diag(L / r_i) phi over the q slots."""
    phi = np.kron(np.eye(q, dtype=np.int64), np.array(spec.phi_rows, dtype=np.int64))
    weights = np.array([spec.exponent // m for m in spec.moduli * q])
    return (phi.T * weights) @ phi % spec.exponent


def pairing(spec: RingSpec, q: int, y, z) -> np.ndarray:
    """L * character(y, z) mod L for y and z in two 1-d label arrays: shape (len(y), len(z))."""
    left = label_digits(spec, q, y) @ character_form(spec, q) % spec.exponent
    return left @ label_digits(spec, q, z).T % spec.exponent


# ---------------------------------------------------------------------------
# descriptor parsing

_Z_RE = re.compile(r"^Z\((\d+)\)$")
_GF_RE = re.compile(r"^GF\((\d+)(?:\^(\d+))?\)(?:\[((?:\d+,)*\d+)\])?$")


def decimal(digits: str, error: type[ValueError] = RingError) -> int:
    """int() of a decimal literal, raising `error` when it is longer than
    Python converts (`sys.get_int_max_str_digits`)."""
    try:
        return int(digits)
    except ValueError:
        raise error(f"integer literal longer than {sys.get_int_max_str_digits()} digits") from None


def int_text(n: int) -> str:
    """str(n), or its order of magnitude past `sys.get_int_max_str_digits()`."""
    try:
        return str(n)
    except ValueError:
        return f"about 10^{int(math.log10(n))}"


def _parse_factor(token: str) -> ZFactor | GFFactor:
    m = _Z_RE.match(token)
    if m:
        modulus = decimal(m.group(1))
        if modulus < 2:
            raise RingError(f"modulus must be at least 2, got {modulus}")
        return ZFactor(modulus)

    m = _GF_RE.match(token)
    if m:
        p = decimal(m.group(1))
        k = 1 if m.group(2) is None else decimal(m.group(2))
        if p ** min(k, 65) > GF_ORDER_LIMIT:  # any k > 64 is above it
            raise RingError(f"{token} has more than 2^64 elements, the largest supported order")
        if m.group(2) is None:
            p, k = _prime_power(p)
        elif not _is_prime(p):
            raise RingError(f"GF base {p} is not prime")
        elif k < 1:
            raise RingError("GF exponent must be positive")
        if m.group(3) is not None:
            coeffs = tuple(decimal(c) for c in m.group(3).split(","))
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
    factors = tuple(_parse_factor(tok) for tok in compact.split("x"))  # no factor holds an x
    width = sum(len(f.moduli) for f in factors)
    identity_rows = tuple(
        tuple(1 if i == j else 0 for j in range(width)) for i in range(width)
    )
    return RingSpec(factors=factors, phi_rows=identity_rows)
