import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qnetcode.rings import (
    RingError,
    basis_vectors,
    character,
    frac_mod1,
    identity_matrix,
    mat_vec,
    matrix_from_rows,
    parse_ring_spec,
    vector_character,
    vector_from_index,
    vector_from_labels,
    vector_zero,
    zero_matrix,
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


class TestVectors:
    def test_vector_character_reduces_to_scalar(self):
        for text in ["Z(3)", "GF(4)"]:
            spec = parse_ring_spec(text)
            for y in spec.elements():
                for z in spec.elements():
                    vy = vector_from_labels(spec, [y.to_int()])
                    vz = vector_from_labels(spec, [z.to_int()])
                    assert vector_character(vy, vz) == character(y, z)

    def test_vector_character_z2_q2(self):
        spec = parse_ring_spec("Z(2)")
        v = lambda *labels: vector_from_labels(spec, labels)
        assert vector_character(v(1, 0), v(1, 1)) == Fraction(1, 2)
        assert vector_character(v(1, 1), v(1, 1)) == 0

    def test_index_round_trip(self):
        spec = parse_ring_spec("GF(4)")
        for idx in range(16):
            assert vector_from_index(spec, 2, idx).to_index() == idx
        assert [v.to_index() for v in basis_vectors(spec, 2)] == list(range(16))

    def test_length_mismatch(self):
        spec = parse_ring_spec("Z(2)")
        with pytest.raises(RingError):
            vector_character(vector_zero(spec, 1), vector_zero(spec, 2))


class TestMatVec:
    def test_identity_action(self):
        spec = parse_ring_spec("Z(3)")
        eye = identity_matrix(spec, 2)
        for idx in range(9):
            v = vector_from_index(spec, 2, idx)
            assert mat_vec(eye, v) == v

    def test_zero_annihilates(self):
        spec = parse_ring_spec("Z(3)")
        z = zero_matrix(spec, 2)
        for idx in range(9):
            assert mat_vec(z, vector_from_index(spec, 2, idx)).is_zero()

    def test_z2_q2_example(self):
        # oracle: plain mod-2 matrix product of [[1,1],[0,1]] with (1,1)
        expected = (
            (1 * 1 + 1 * 1) % 2,
            (0 * 1 + 1 * 1) % 2,
        )
        assert expected == (0, 1)
        spec = parse_ring_spec("Z(2)")
        e = spec.from_int
        B = matrix_from_rows(spec, [[e(1), e(1)], [e(0), e(1)]])
        v = vector_from_labels(spec, (1, 1))
        assert mat_vec(B, v) == vector_from_labels(spec, expected)

    def test_dimension_mismatch(self):
        spec = parse_ring_spec("Z(2)")
        with pytest.raises(RingError):
            mat_vec(identity_matrix(spec, 2), vector_zero(spec, 3))

    @given(st.data())
    def test_additivity_random(self, data):
        spec = parse_ring_spec(data.draw(st.sampled_from(["Z(4)", "GF(4)", "Z(6)"])))
        q = data.draw(st.integers(min_value=1, max_value=3))
        n = spec.cardinality
        draw_vec = lambda: vector_from_labels(
            spec, data.draw(st.lists(st.integers(0, n - 1), min_size=q, max_size=q))
        )
        rows = [
            [spec.from_int(data.draw(st.integers(0, n - 1))) for _ in range(q)]
            for _ in range(q)
        ]
        B = matrix_from_rows(spec, rows)
        u, v = draw_vec(), draw_vec()
        assert mat_vec(B, u + v) == mat_vec(B, u) + mat_vec(B, v)
