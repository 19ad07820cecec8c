import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from qnetcode.rings import (
    RingError,
    add_labels,
    character,
    coefficient_matrix,
    combine,
    frac_mod1,
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

    def test_round_trip_describe(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text)
            assert parse_ring_spec(spec.describe()) == spec


class TestArithmetic:
    def test_z4_add(self):
        spec = parse_ring_spec("Z(4)")
        assert spec.from_int(3) + spec.from_int(2) == spec.from_int(1)

    def test_gf4_t_squared(self):
        spec = parse_ring_spec("GF(4)")
        t = spec.element((0, 1))
        assert t * t == spec.element((1, 1))  # t+1

    def test_additive_inverse_everywhere(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text)
            for a in spec.elements():
                assert a + -a == spec.zero()

    def test_ring_axioms_exhaustive_small(self):
        for text in ["Z(4)", "GF(4)", "Z(2)xZ(3)"]:
            spec = parse_ring_spec(text)
            elems = list(spec.elements())
            one = spec.one()
            for a in elems:
                assert a * one == a and one * a == a
                for b in elems:
                    assert a * b == spec.from_int((a * b).to_int())
                    for c in elems:
                        assert (a * b) * c == a * (b * c)
                        assert a * (b + c) == a * b + a * c
                        assert (a + b) * c == a * c + b * c

    def test_mismatched_specs_rejected(self):
        a = parse_ring_spec("Z(2)").one()
        b = parse_ring_spec("Z(3)").one()
        with pytest.raises(RingError):
            a + b

    def test_labels_round_trip(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text)
            for i in range(spec.cardinality):
                assert spec.from_int(i).to_int() == i


class TestCharacter:
    def test_z2_hadamard_phase(self):
        spec = parse_ring_spec("Z(2)")
        assert character(spec.from_int(1), spec.from_int(1)) == Fraction(1, 2)

    def test_zero_annihilates(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text)
            for z in spec.elements():
                assert character(spec.zero(), z) == 0

    def test_z4_example(self):
        spec = parse_ring_spec("Z(4)")
        assert character(spec.from_int(3), spec.from_int(2)) == Fraction(1, 2)

    def test_bi_additive_exhaustive(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text)
            assert spec.cardinality <= 16
            elems = list(spec.elements())
            for y in elems:
                for y2 in elems:
                    for z in elems:
                        lhs = character(y + y2, z)
                        rhs = frac_mod1(character(y, z) + character(y2, z))
                        assert lhs == rhs

    def test_symmetry(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text)
            for y in spec.elements():
                for z in spec.elements():
                    assert character(y, z) == character(z, y)

    def test_non_degenerate(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text)
            for y in spec.elements():
                if y.is_zero():
                    continue
                assert any(character(y, z) != 0 for z in spec.elements())

    def test_phi_is_additive_isomorphism(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text)
            seen = set()
            for a in spec.elements():
                seen.add(spec.phi(a))
                for b in spec.elements():
                    expected = tuple(
                        (x + y) % m
                        for x, y, m in zip(spec.phi(a), spec.phi(b), spec.moduli)
                    )
                    assert spec.phi(a + b) == expected
            assert len(seen) == spec.cardinality

    def test_alternate_phi_still_isomorphism_and_nondegenerate(self):
        for text in SMALL_DESCRIPTORS:
            spec = parse_ring_spec(text).with_alternate_phi()
            seen = {spec.phi(a) for a in spec.elements()}
            assert len(seen) == spec.cardinality
            for y in spec.elements():
                if y.is_zero():
                    continue
                assert any(character(y, z) != 0 for z in spec.elements())

    def test_alternate_phi_nontrivial_when_possible(self):
        spec = parse_ring_spec("Z(3)").with_alternate_phi()
        assert spec.phi(spec.from_int(1)) == (2,)
        spec = parse_ring_spec("GF(4)").with_alternate_phi()
        assert spec.phi(spec.element((1, 0))) == (1, 1)
        # the shear changes the pairing itself, not only coordinates
        plain = parse_ring_spec("GF(4)")
        t_plain, one_plain = plain.element((0, 1)), plain.one()
        t_alt, one_alt = spec.element((0, 1)), spec.one()
        assert character(t_plain, one_plain) != character(t_alt, one_alt)


def pair(spec, q, y, z):
    """The character of two register labels as an exact fraction."""
    return Fraction(int(pairing(spec, q, [y], [z])[0, 0]), spec.exponent)


def label(spec, *entries):
    return register_label([spec.from_int(e) for e in entries])


def act(spec, q, g, x):
    return linear_map(spec, q, [[g]], [x])[..., 0]


def matrix(spec, rows):
    return coefficient_matrix(spec, [[spec.from_int(e) for e in row] for row in rows])


class TestVectors:
    def test_vector_character_reduces_to_scalar(self):
        for text in ["Z(3)", "GF(4)"]:
            spec = parse_ring_spec(text)
            for y in spec.elements():
                for z in spec.elements():
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
        elem = lambda: spec.from_int(data.draw(st.integers(0, spec.cardinality - 1)))
        vec = lambda: [elem() for _ in range(q)]
        mat = lambda: [vec() for _ in range(q)]

        def mul(B, C):
            return [[sum((B[i][t] * C[t][j] for t in range(q)), spec.zero()) for j in range(q)] for i in range(q)]

        B, C, B2, C2, v, y = mat(), mat(), mat(), mat(), vec(), vec()
        g = coefficient_matrix(spec, B)
        assert matrix_entries(spec, g) == [[e.to_int() for e in row] for row in B]
        Bv = [sum((B[i][j] * v[j] for j in range(q)), spec.zero()) for i in range(q)]
        assert act(spec, q, g, register_label(v)) == register_label(Bv)
        sum_of_products = [
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(mul(B, C), mul(B2, C2))
        ]
        got = combine(spec, q, [g, coefficient_matrix(spec, B2)], [coefficient_matrix(spec, C), coefficient_matrix(spec, C2)])
        assert np.array_equal(got, coefficient_matrix(spec, sum_of_products))
        expected = frac_mod1(sum((character(a, b) for a, b in zip(y, v)), Fraction(0)))
        assert pair(spec, q, register_label(y), register_label(v)) == expected
