import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from oracles import add_labels, character, element, elements, frac_mod1, from_int, one, phi, to_labels, zero
from qnetcode.rings import (
    _entry_block,
    RingError,
    coefficient_matrix,
    combine,
    linear_map,
    matrix_entries,
    pairing,
    parse_ring_spec,
    register_entries,
    register_label,
)

SMALL_DESCRIPTORS = ["Z(2)", "Z(3)", "Z(4)", "Z(6)", "GF(4)", "GF(8)", "Z(2)xZ(4)", "Z(2)xGF(4)"]


def brute_force_irreducibles(p, k):
    """Enumerate monic degree-k polynomials over Z(p) with no nontrivial factorization."""

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return tuple(out)

    def monic(degree):
        for tail in itertools.product(range(p), repeat=degree):
            yield tail + (1,)

    products = set()
    for d1 in range(1, k):
        d2 = k - d1
        if d2 < 1:
            continue
        for f in monic(d1):
            for g in monic(d2):
                products.add(poly_mul(f, g))
    return [poly for poly in monic(k) if poly not in products]


class TestParse:
    def test_z2(self):
        spec = parse_ring_spec("Z(2)")
        assert spec.moduli == (2,)
        assert spec.cardinality == 2

    def test_gf4_selects_irreducible(self):
        spec = parse_ring_spec("GF(4)")
        factor = spec.factors[0]
        assert (factor.p, factor.k) == (2, 2)
        assert spec.moduli == (2, 2)
        # oracle: the only monic irreducible quadratic over Z(2)
        assert brute_force_irreducibles(2, 2) == [(1, 1, 1)]
        assert factor.poly == (1, 1, 1)

    def test_gf8_default_poly_is_least_irreducible(self):
        spec = parse_ring_spec("GF(8)")
        candidates = brute_force_irreducibles(2, 3)
        key = lambda poly: sum(c * 2**i for i, c in enumerate(poly))
        assert spec.factors[0].poly == min(candidates, key=key)

    def test_product(self):
        spec = parse_ring_spec("Z(2)xZ(4)")
        assert spec.moduli == (2, 4)
        assert spec.cardinality == 8

    def test_whitespace_and_caret(self):
        assert parse_ring_spec("Z(2) x Z(4)") == parse_ring_spec("Z(2)xZ(4)")
        assert parse_ring_spec("GF(2^2)") == parse_ring_spec("GF(4)")

    def test_supplied_poly(self):
        spec = parse_ring_spec("GF(4)[1,1,1]")
        assert spec.factors[0].poly == (1, 1, 1)

    def test_errors(self):
        with pytest.raises(RingError):
            parse_ring_spec("Z(1)")
        with pytest.raises(RingError):
            parse_ring_spec("GF(6)")  # not a prime power
        with pytest.raises(RingError):
            parse_ring_spec("GF(4^2)")  # composite base
        with pytest.raises(RingError):
            parse_ring_spec("GF(4)[1,0,1]")  # (t+1)^2, reducible
        with pytest.raises(RingError):
            parse_ring_spec("Q(2)")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("GF(4)[1,1,0]", "polynomial for GF(2^2) must be monic of degree 2"),
            ("GF(4)[1,1]", "polynomial for GF(2^2) must be monic of degree 2"),
            ("GF(8)[1,1,0,1,1]", "polynomial for GF(2^3) must be monic of degree 3"),
            ("GF(9)[2,5,1]", "polynomial coefficients must lie in [0, 3)"),
            ("GF(2^0)", "GF exponent must be positive"),
            ("", "empty ring descriptor"),
            (" \t\n", "empty ring descriptor"),
        ],
    )
    def test_bad_descriptors_name_the_fault(self, text, message):
        with pytest.raises(RingError, match=re.escape(message)):
            parse_ring_spec(text)

    @pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 3), (7, 2)])
    def test_supplied_poly_accepted_iff_irreducible(self, p, k):
        irreducible = set(brute_force_irreducibles(p, k))
        for tail in itertools.product(range(p), repeat=k):
            poly = tail + (1,)
            text = f"GF({p}^{k})[{','.join(map(str, poly))}]"
            if poly in irreducible:
                assert parse_ring_spec(text).factors[0].poly == poly
            else:
                with pytest.raises(RingError, match="reducible"):
                    parse_ring_spec(text)

    def test_gf_order_parses_iff_prime_power(self):
        def prime_power(n):
            p = next(d for d in range(2, n + 1) if n % d == 0)
            while n % p == 0:
                n //= p
            return n == 1

        for n in range(2, 600):
            if prime_power(n):
                factor = parse_ring_spec(f"GF({n})").factors[0]
                assert factor.p**factor.k == n
            else:
                with pytest.raises(RingError, match="not a prime power"):
                    parse_ring_spec(f"GF({n})")
        # primes near 2^64 parse; strong pseudoprimes to small bases do not
        for p in (2**61 - 1, 2**64 - 59):
            assert parse_ring_spec(f"GF({p})").factors[0].poly == (0, 1)
        for n in (3215031751, 3825123056546413051):
            with pytest.raises(RingError):
                parse_ring_spec(f"GF({n})")

    # default polynomials of fields whose exhaustive search took 0.1-1 s
    @pytest.mark.parametrize(
        "text, poly",
        [
            ("GF(2^24)", (1, 1, 0, 1, 1) + (0,) * 19 + (1,)),
            ("GF(536870912)", (1, 0, 1) + (0,) * 26 + (1,)),
            ("GF(3^19)", (2, 0, 1) + (0,) * 16 + (1,)),
            ("GF(5^13)", (2, 3, 1) + (0,) * 10 + (1,)),
            ("GF(17^9)", (3, 1) + (0,) * 7 + (1,)),
            ("GF(23^7)", (11, 5, 0, 0, 0, 0, 0, 1)),
            ("GF(257^5)", (4, 1, 0, 0, 0, 1)),
            ("GF(65537^2)", (3, 0, 1)),
            ("GF(1000003)", (0, 1)),
        ],
    )
    def test_default_polynomials_kept(self, text, poly):
        assert parse_ring_spec(text).factors[0].poly == poly

    def test_huge_gf_orders(self):
        # the polynomial search is fast up to order 2^64 and refused beyond it
        for text, (p, k) in [
            ("GF(2^40)", (2, 40)),
            ("GF(1099511627776)", (2, 40)),
            ("GF(3^30)", (3, 30)),
            ("GF(2305843009213693951)", (2**61 - 1, 1)),
            ("GF(2^64)", (2, 64)),
        ]:
            factor = parse_ring_spec(text).factors[0]
            assert (factor.p, factor.k, len(factor.poly)) == (p, k, k + 1)
        assert parse_ring_spec("GF(2^40)") == parse_ring_spec("GF(1099511627776)")
        for text in ("GF(2^65)", f"GF({2**64 + 1})", "GF(3^100000000)", f"GF({2**200}^1)"):
            with pytest.raises(RingError, match="2\\^64"):
                parse_ring_spec(text)
        # for p = 3 mod 4 no x^4 + c is irreducible, and those fill the candidates
        with pytest.raises(RingError, match="give one"):
            parse_ring_spec("GF(65519^4)")

    def test_round_trip_describe(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text)
            assert parse_ring_spec(spec.describe()) == spec


class TestArithmetic:
    def test_z4_add(self):
        spec = parse_ring_spec("Z(4)")
        assert from_int(spec, 3) + from_int(spec, 2) == from_int(spec, 1)

    def test_gf4_t_squared(self):
        spec = parse_ring_spec("GF(4)")
        t = element(spec, (0, 1))
        assert t * t == element(spec, (1, 1))  # t+1

    def test_additive_inverse_everywhere(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text)
            for a in elements(spec):
                assert a + -a == zero(spec)

    def test_ring_axioms_exhaustive_small(self):
        for text in ["Z(4)", "GF(4)", "Z(2)xZ(3)"]:
            spec = parse_ring_spec(text)
            elems = list(elements(spec))
            unit = one(spec)
            for a in elems:
                assert a * unit == a and unit * a == a
                for b in elems:
                    assert a * b == from_int(spec, (a * b).to_int())
                    for c in elems:
                        assert (a * b) * c == a * (b * c)
                        assert a * (b + c) == a * b + a * c
                        assert (a + b) * c == a * c + b * c

    def test_mismatched_specs_rejected(self):
        a = one(parse_ring_spec("Z(2)"))
        b = one(parse_ring_spec("Z(3)"))
        with pytest.raises(RingError):
            a + b

    def test_labels_round_trip(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text)
            for i in range(spec.cardinality):
                assert from_int(spec, i).to_int() == i


class TestCharacter:
    def test_z2_hadamard_phase(self):
        spec = parse_ring_spec("Z(2)")
        assert character(from_int(spec, 1), from_int(spec, 1)) == Fraction(1, 2)

    def test_zero_annihilates(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text)
            for z in elements(spec):
                assert character(zero(spec), z) == 0

    def test_z4_example(self):
        spec = parse_ring_spec("Z(4)")
        assert character(from_int(spec, 3), from_int(spec, 2)) == Fraction(1, 2)

    def test_bi_additive_exhaustive(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text)
            assert spec.cardinality <= 16
            elems = list(elements(spec))
            for y in elems:
                for y2 in elems:
                    for z in elems:
                        lhs = character(y + y2, z)
                        rhs = frac_mod1(character(y, z) + character(y2, z))
                        assert lhs == rhs

    def test_symmetry(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text)
            for y in elements(spec):
                for z in elements(spec):
                    assert character(y, z) == character(z, y)

    def test_non_degenerate(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text)
            for y in elements(spec):
                if y.is_zero():
                    continue
                assert any(character(y, z) != 0 for z in elements(spec))

    def test_phi_is_additive_isomorphism(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text)
            seen = set()
            for a in elements(spec):
                seen.add(phi(spec, a))
                for b in elements(spec):
                    expected = tuple(
                        (x + y) % m
                        for x, y, m in zip(phi(spec, a), phi(spec, b), spec.moduli)
                    )
                    assert phi(spec, a + b) == expected
            assert len(seen) == spec.cardinality

    def test_alternate_phi_still_isomorphism_and_nondegenerate(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text).with_alternate_phi()
            seen = {phi(spec, a) for a in elements(spec)}
            assert len(seen) == spec.cardinality
            for y in elements(spec):
                if y.is_zero():
                    continue
                assert any(character(y, z) != 0 for z in elements(spec))

    def test_alternate_phi_nontrivial_when_possible(self):
        spec = parse_ring_spec("Z(3)").with_alternate_phi()
        assert phi(spec, from_int(spec, 1)) == (2,)
        spec = parse_ring_spec("GF(4)").with_alternate_phi()
        assert phi(spec, element(spec, (1, 0))) == (1, 1)
        # the shear changes the pairing itself, not only coordinates
        plain = parse_ring_spec("GF(4)")
        t_plain, one_plain = element(plain, (0, 1)), one(plain)
        t_alt, one_alt = element(spec, (0, 1)), one(spec)
        assert character(t_plain, one_plain) != character(t_alt, one_alt)


def pair(spec, q, y, z):
    """The character of two register labels as an exact fraction."""
    return Fraction(int(pairing(spec, q, [y], [z])[0, 0]), spec.exponent)


def label(spec, *entries):
    return register_label(spec, entries)


def act(spec, q, g, x):
    return linear_map(spec, q, [[g]], [x])[..., 0]


def matrix(spec, rows):
    return coefficient_matrix(spec, rows)


class TestVectors:
    def test_vector_character_reduces_to_scalar(self):
        for text in ["Z(3)", "GF(4)"]:
            spec = parse_ring_spec(text)
            for y in elements(spec):
                for z in elements(spec):
                    assert pair(spec, 1, y.to_int(), z.to_int()) == character(y, z)

    def test_vector_character_z2_q2(self):
        spec = parse_ring_spec("Z(2)")
        assert pair(spec, 2, label(spec, 1, 0), label(spec, 1, 1)) == Fraction(1, 2)
        assert pair(spec, 2, label(spec, 1, 1), label(spec, 1, 1)) == 0

    def test_index_round_trip(self):
        spec = parse_ring_spec("GF(4)")
        for idx in range(16):
            assert label(spec, *register_entries(spec, 2, idx)) == idx
        assert list(add_labels(spec, 2, np.arange(16), 0)) == list(range(16))

    def test_length_mismatch(self):
        spec = parse_ring_spec("Z(2)")
        with pytest.raises(RingError):
            pair(spec, 1, 0, label(spec, 1, 1))


class TestMatVec:
    def test_identity_action(self):
        spec = parse_ring_spec("Z(3)")
        eye = matrix(spec, [[1, 0], [0, 1]])
        assert list(act(spec, 2, eye, np.arange(9))) == list(range(9))

    def test_zero_annihilates(self):
        spec = parse_ring_spec("Z(3)")
        z = matrix(spec, [[0, 0], [0, 0]])
        assert not act(spec, 2, z, np.arange(9)).any()

    def test_z2_q2_example(self):
        # oracle: plain mod-2 matrix product of [[1,1],[0,1]] with (1,1)
        expected = (
            (1 * 1 + 1 * 1) % 2,
            (0 * 1 + 1 * 1) % 2,
        )
        assert expected == (0, 1)
        spec = parse_ring_spec("Z(2)")
        B = matrix(spec, [[1, 1], [0, 1]])
        assert act(spec, 2, B, label(spec, 1, 1)) == label(spec, *expected)

    def test_dimension_mismatch(self):
        spec = parse_ring_spec("Z(2)")
        with pytest.raises(RingError):
            act(spec, 3, matrix(spec, [[1, 0], [0, 1]]), 0)

    @given(st.data())
    def test_additivity_random(self, data):
        spec = parse_ring_spec(data.draw(st.sampled_from(["Z(4)", "GF(4)", "Z(6)"])))
        q = data.draw(st.integers(min_value=1, max_value=3))
        n = spec.cardinality
        draw_vec = lambda: label(
            spec, *data.draw(st.lists(st.integers(0, n - 1), min_size=q, max_size=q))
        )
        rows = [[data.draw(st.integers(0, n - 1)) for _ in range(q)] for _ in range(q)]
        B = matrix(spec, rows)
        u, v = draw_vec(), draw_vec()
        lhs = act(spec, q, B, add_labels(spec, q, u, v))
        assert lhs == add_labels(spec, q, act(spec, q, B, u), act(spec, q, B, v))


class TestIntegerForm:
    """The integer labels, matrices and character form against RingElem arithmetic."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_ring_elem_arithmetic(self, data):
        spec = parse_ring_spec(data.draw(st.sampled_from(SMALL_DESCRIPTORS)))
        if data.draw(st.booleans(), label="twisted"):
            spec = spec.with_alternate_phi()
        q = data.draw(st.integers(1, 3), label="q")
        elem = lambda: from_int(spec, data.draw(st.integers(0, spec.cardinality - 1)))
        vec = lambda: [elem() for _ in range(q)]
        mat = lambda: [vec() for _ in range(q)]

        def mul(B, C):
            return [[sum((B[i][t] * C[t][j] for t in range(q)), zero(spec)) for j in range(q)] for i in range(q)]

        B, C, B2, C2, v, y = mat(), mat(), mat(), mat(), vec(), vec()
        g = coefficient_matrix(spec, to_labels(B))
        assert matrix_entries(spec, g) == to_labels(B)
        Bv = [sum((B[i][j] * v[j] for j in range(q)), zero(spec)) for i in range(q)]
        assert act(spec, q, g, register_label(spec, to_labels(v))) == register_label(spec, to_labels(Bv))
        sum_of_products = [
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(mul(B, C), mul(B2, C2))
        ]
        G = lambda M: coefficient_matrix(spec, to_labels(M))
        got = combine(spec, q, [[g, G(B2)]], [[G(C)], [G(C2)]])[0, 0]
        assert np.array_equal(got, G(sum_of_products))
        expected = frac_mod1(sum((character(a, b) for a, b in zip(y, v)), Fraction(0)))
        assert pair(spec, q, register_label(spec, to_labels(y)), register_label(spec, to_labels(v))) == expected


class TestCoefficientMatrix:
    @pytest.mark.parametrize("text", SMALL_DESCRIPTORS + ["Z(16777259)"])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_blocks_assemble_the_per_unit_products(self, text, q):
        # row (j, t) lists the coordinates of B[i][j] times unit t, for every i
        spec = parse_ring_spec(text)
        width = len(spec.moduli)
        units = [element(spec, [int(s == t) for s in range(width)]) for t in range(width)]
        rng = np.random.default_rng(q)
        for _ in range(5):
            B = [[from_int(spec, int(rng.integers(min(spec.cardinality, 2**62)))) for _ in range(q)] for _ in range(q)]
            expected = [[c for i in range(q) for c in (B[i][j] * u).coords] for j in range(q) for u in units]
            g = coefficient_matrix(spec, to_labels(B))
            assert g.dtype == (object if text == "Z(16777259)" else np.int64)
            assert g.tolist() == expected
            assert g.flags.writeable

    def test_cached_blocks_are_read_only(self):
        spec = parse_ring_spec("GF(4)")
        block = _entry_block(spec, one(spec).to_int())
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 0
        g = coefficient_matrix(spec, [[one(spec).to_int()]])
        g[0, 0] = 0
        assert _entry_block(spec, one(spec).to_int())[0, 0] == 1

    @pytest.mark.parametrize("entry", [-1, 3, 5])
    def test_label_out_of_range(self, entry):
        # an element is its label: one of another ring is just out of range
        spec = parse_ring_spec("Z(3)")
        with pytest.raises(RingError, match=f"element label {entry} out of range for Z\\(3\\)"):
            coefficient_matrix(spec, [[entry]])
        with pytest.raises(RingError, match="out of range"):
            register_label(spec, [0, entry])
