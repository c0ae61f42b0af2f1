import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosscap.errors import ChartDomainError, UnresolvedWinding, VanishingOnLoop
from crosscap.wirtinger import (
    DEFAULT_SAMPLE_COUNT,
    MAX_SAMPLE_COUNT,
    ONE_PLUS_S,
    Loop,
    MonomialField,
    RationalField,
    winding_of,
)

XI = MonomialField.xi()
XIBAR = MonomialField.xibar()
ONE = MonomialField.constant(1.0)
S = XI * XIBAR


def cubic_support():
    # (2/3)(xi^3 + xibar^3)
    return MonomialField({(3, 0): 2.0 / 3.0, (0, 3): 2.0 / 3.0})


def winding_oracle(func, center, radius, n=4096):
    """Independent winding computation: unwrap sampled arguments."""
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    vals = np.asarray(func(center + radius * np.exp(1j * theta)))
    vals = np.append(vals, vals[0])
    args = np.unwrap(np.angle(vals))
    total = (args[-1] - args[0]) / (2.0 * np.pi)
    assert abs(total - round(total)) < 1e-9
    return round(total)


class TestDerivatives:
    def test_power_rule(self):
        assert (XI * XI).d_xi() == MonomialField({(1, 0): 2.0})

    def test_cubic_support_gradient(self):
        # left side of the support relation for the cubic example
        assert cubic_support().d_xi() == MonomialField({(2, 0): 2.0})

    def test_product_derivative_matches_refactored_form(self):
        f = (ONE + S) * (ONE + S) * XIBAR * XIBAR
        derivative = f.d_xibar()
        factored = 2.0 * XIBAR * (ONE + S) * (ONE + 2.0 * S)
        rng = np.random.default_rng(11)
        for _ in range(10):
            z = complex(*rng.normal(size=2))
            assert derivative.eval(z) == pytest.approx(factored.eval(z), abs=1e-12)
        assert derivative == factored

    def test_mixed_partials_commute_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = MonomialField(
                {
                    (int(rng.integers(0, 5)), int(rng.integers(0, 5))): complex(
                        *rng.normal(size=2)
                    )
                    for _ in range(6)
                }
            )
            assert f.d_xi().d_xibar() == f.d_xibar().d_xi()

    def test_conjugation_intertwines_derivatives(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            f = MonomialField(
                {
                    (int(rng.integers(0, 5)), int(rng.integers(0, 5))): complex(
                        *rng.normal(size=2)
                    )
                    for _ in range(6)
                }
            )
            assert f.d_xibar().conj() == f.conj().d_xi()


class TestEval:
    def test_s_at_one_plus_i(self):
        assert S.eval(1 + 1j) == pytest.approx(2.0)

    def test_section_value_at_one(self):
        f = (ONE + S) * (ONE + S) * XIBAR * XIBAR
        assert f.eval(1.0) == pytest.approx(4.0)

    def test_cubic_support_at_one(self):
        assert cubic_support().eval(1.0) == pytest.approx(4.0 / 3.0)

    def test_real_flagged_field_evaluates_real(self):
        rng = np.random.default_rng(3)
        terms = {}
        for _ in range(5):
            m, n = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            c = complex(*rng.normal(size=2))
            terms[(m, n)] = terms.get((m, n), 0) + c
            terms[(n, m)] = terms.get((n, m), 0) + c.conjugate()
        f = MonomialField(terms)
        assert f.is_real_symmetric()
        pts = rng.normal(size=100) + 1j * rng.normal(size=100)
        assert np.max(np.abs(np.imag(f.eval(pts)))) < 1e-12

    def test_chart_bound_rejected(self):
        with pytest.raises(ChartDomainError):
            S.eval(2e3)

    def test_rational_field_eval(self):
        f = RationalField(2.0 * XI, 1)  # 2 xi / (1+s)
        assert f.eval(1.0) == pytest.approx(1.0)

    def test_rational_chart_bound_rejected_before_overflow(self):
        # 1e300 squared overflows; the chart check must come first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ChartDomainError):
                RationalField(MonomialField.xi(), 1).eval(1e300)

    def test_rational_reduction(self):
        f = RationalField((ONE + S) * XI, 2).reduced()
        assert f.den_power == 1
        assert f.num == XI


def reference_eval_pair(terms, z, w):
    """The Horner loop ``MonomialField.eval_pair`` ran before it cached a
    plan and shared its powers, frozen as the bit-for-bit reference."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if not terms:
        return np.zeros(np.broadcast(z, w).shape, dtype=complex) if z.ndim or w.ndim else 0j
    by_m = {}
    for (m, n), c in terms.items():
        by_m.setdefault(m, {})[n] = c
    acc = 0j
    prev_m = None
    for m in sorted(by_m, reverse=True):
        inner = 0j
        ns = by_m[m]
        prev_n = None
        for n in sorted(ns, reverse=True):
            if prev_n is None:
                inner = ns[n] + 0j
            else:
                inner = inner * w ** (prev_n - n) + ns[n]
            prev_n = n
        if prev_n:
            inner = inner * w ** prev_n
        if prev_m is None:
            acc = inner
        else:
            acc = acc * z ** (prev_m - m) + inner
        prev_m = m
    if prev_m:
        acc = acc * z ** prev_m
    return acc


def same_bits(got, want):
    return type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


COEFFS = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
TERMS = st.dictionaries(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), COEFFS, max_size=12
)


class TestEvalPlan:
    """``eval_pair`` from the cached plan matches the plain Horner loop bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(terms=TERMS, seed=st.integers(0, 2**32 - 1))
    @example(terms={}, seed=0)  # the zero field
    @example(terms={(0, 0): -0.0 + 2.5j}, seed=1)  # a constant field
    @example(terms={(7, 5): 1.5 - 1j, (3, 2): -0.5, (0, 9): 2j}, seed=2)  # gaps > 1 in m and n
    @example(terms={(4, 6): 1.0, (4, 3): 2.0, (1, 3): -1j}, seed=3)  # trailing xibar powers
    def test_bit_identical_to_reference(self, terms, seed):
        f = MonomialField(terms)
        clean = f.terms()
        rng = np.random.default_rng(seed)

        def points(shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        z2 = points((3, 4))
        pairs = [
            (complex(points(())), complex(points(()))),
            (np.asarray(points(())), np.asarray(points(()))),
            (points(5), points(5)),
            (z2, np.conj(z2)),
            (points((3, 1)), points(4)),  # broadcast
            (1.0, points((2, 3))),
        ]
        for _ in range(2):  # the second pass runs from the cached plan
            for z, w in pairs:
                assert same_bits(f.eval_pair(z, w), reference_eval_pair(clean, z, w))
            for xi in (complex(z2[0, 0]), np.asarray(z2[1, 1]), z2[0], z2):
                want = reference_eval_pair(clean, xi, np.conj(xi))
                if np.ndim(xi) == 0:
                    want = complex(want)
                assert same_bits(f.eval(xi), want)

    def test_equality_and_hash_ignore_the_plan(self):
        terms = {(3, 1): 1.0 + 2j, (0, 2): -0.5, (1, 0): 4.0}
        used, fresh = MonomialField(terms), MonomialField(terms)
        used.eval(0.3 + 0.1j)
        assert used._plan is not None and fresh._plan is None
        assert used == fresh and hash(used) == hash(fresh)
        assert len({used, fresh}) == 1


class TestWinding:
    def test_conjugate_coordinate(self):
        assert winding_of(np.conj, Loop(0, 1)) == -1

    def test_dominant_conjugate_factor(self):
        f = (ONE + S) * (ONE + S) * XIBAR * XIBAR
        derivative = f.d_xibar()
        loop = Loop(0, 0.1)
        got = winding_of(lambda z: derivative.eval(z), loop)
        assert got == winding_oracle(lambda z: derivative.eval(z), 0, 0.1) == -1

    def test_dominant_square_factor(self):
        g = XI * XI * (ONE + S)
        loop = Loop(0, 0.5)
        got = winding_of(lambda z: g.eval(z), loop)
        assert got == winding_oracle(lambda z: g.eval(z), 0, 0.5) == 2

    def test_vanishing_on_loop(self):
        g = XI - 0.1 * ONE
        with pytest.raises(VanishingOnLoop):
            winding_of(lambda z: g.eval(z), Loop(0, 0.1))

    def test_refines_until_increments_are_resolved(self):
        # z^100 turns by 2 pi 100 / n per step: pi/2 needs n > 400
        counts = []

        def power(z):
            counts.append(z.size)
            return z ** 100

        assert winding_of(power, Loop(0, 1.0)) == 100
        assert counts == [DEFAULT_SAMPLE_COUNT, 512]

    def test_unresolved_at_the_sample_cap(self):
        # alternating signs turn by pi at every sampling density
        counts = []

        def alternating(z):
            counts.append(z.size)
            return np.where(np.arange(z.size) % 2, -1.0, 1.0)

        with pytest.raises(UnresolvedWinding, match="sample cap"):
            winding_of(alternating, Loop(0, 1.0))
        assert counts[-1] == MAX_SAMPLE_COUNT

    @pytest.mark.parametrize("side, expected", [(-1, 1), (1, 0)])
    def test_cap_increment(self, side, expected):
        # a zero 1e-5 inside or outside the unit circle, midway between two
        # cap samples, turns the argument by about 2.7 there
        zero = (1 + side * 1e-5) * np.exp(1j * np.pi / MAX_SAMPLE_COUNT)
        with pytest.raises(UnresolvedWinding, match="sample cap"):
            winding_of(lambda z: z - zero, Loop(0, 1.0))
        assert winding_of(lambda z: z - zero, Loop(0, 1.0), cap_increment=np.pi) == expected

    def test_loop_validation(self):
        for radius in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive"):
                Loop(0, radius)


class TestWireFormat:
    def test_bit_exact_round_trip(self):
        rng = np.random.default_rng(9)
        f = MonomialField(
            {
                (int(rng.integers(0, 6)), int(rng.integers(0, 6))): complex(
                    rng.normal(), rng.normal()
                )
                for _ in range(8)
            }
        )
        payload = json.dumps(f.to_records())
        g = MonomialField.from_records(json.loads(payload))
        assert f == g  # exact coefficient equality, not approximate

    @pytest.mark.parametrize(
        "records",
        [
            {"m": 1, "n": 0, "re": 1.0},
            [[1, 0, 1.0]],
            [{"m": 1, "n": 0}],
            [{"m": 1.5, "n": 0, "re": 1.0}],
            [{"m": True, "n": 0, "re": 1.0}],
            [{"m": 1, "n": 0, "re": "1"}],
            [{"m": 1, "n": 0, "re": float("nan")}],
            [{"m": 1, "n": 0, "re": 1.0, "im": float("inf")}],
        ],
    )
    def test_malformed_records_rejected(self, records):
        with pytest.raises(ValueError):
            MonomialField.from_records(records)

    def test_canonical_form_drops_zeros(self):
        f = MonomialField({(1, 1): 1.0, (2, 0): 0.0})
        assert (1, 1) in f.terms() and (2, 0) not in f.terms()
        assert (f - f) == MonomialField.zero()


class TestInputs:
    @pytest.mark.parametrize(
        "key", [(1.5, 0), (1.0, 0), (True, 0), (0, False), ("1", 0), (np.float64(2.0), 1)]
    )
    def test_non_integer_exponents_rejected(self, key):
        with pytest.raises(ValueError, match="integers"):
            MonomialField({key: 1.0})

    def test_numpy_integer_exponents_become_ints(self):
        f = MonomialField({(np.int64(2), np.uint8(1)): 1.5})
        assert f.terms() == {(2, 1): 1.5 + 0j}
        assert all(type(e) is int for key in f.terms() for e in key)

    @pytest.mark.parametrize("shift", [(0.0, 1), (0, 1.5), (True, 0), (-1, 0)])
    def test_shift_down_rejects_non_integer_shifts(self, shift):
        with pytest.raises(ValueError, match="non-negative integers"):
            (XI * XIBAR).shift_down(*shift)

    @pytest.mark.parametrize("other", [None, "a", [1.0], object(), {(0, 0): 1.0}])
    def test_unsupported_operands_raise_type_error(self, other):
        f = ONE + XI
        for op in (
            lambda: f + other, lambda: other + f, lambda: f - other,
            lambda: other - f, lambda: f * other, lambda: other * f,
        ):
            with pytest.raises(TypeError):
                op()

    @pytest.mark.parametrize("kind", [np.int8, np.int64, np.uint64])
    @pytest.mark.parametrize("value", [0, 1, 3])
    def test_numpy_integer_operands_match_int(self, kind, value):
        f = MonomialField({(0, 0): 2.5 - 1e300j, (2, 1): -0.1 + 7j, (0, 3): 1e-300})
        k = kind(value)
        for got, want in ((f * k, f * value), (f + k, f + value), (f - k, f - value)):
            assert same_terms(got, want.terms())


# The validating constructor and operators MonomialField had before algebra
# results were built in canonical form directly, frozen as the bit-for-bit
# reference.  Fields are coefficient maps; scalars are int, float or complex
# (bool, np.float64 and np.complex128 are subclasses of those).
REF_SCALAR = (int, float, complex)


def ref_field(terms):
    clean = {}
    for (m, n), c in terms.items():
        m = int(m)
        n = int(n)
        c = complex(c)
        if c != 0:
            clean[(m, n)] = clean.get((m, n), 0j) + c
    return {k: v for k, v in clean.items() if v != 0}


def ref_add(a, b):
    if isinstance(b, REF_SCALAR):
        b = ref_field({(0, 0): b})
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0j) + c
    return ref_field(out)


def ref_neg(a):
    return ref_field({k: -c for k, c in a.items()})


def ref_sub(a, b):
    if isinstance(b, REF_SCALAR):
        b = ref_field({(0, 0): b})
    return ref_add(a, ref_neg(b))


def ref_mul(a, b):
    if isinstance(b, REF_SCALAR):
        return ref_field({k: c * b for k, c in a.items()})
    out = {}
    for (m1, n1), c1 in a.items():
        for (m2, n2), c2 in b.items():
            k = (m1 + m2, n1 + n2)
            out[k] = out.get(k, 0j) + c1 * c2
    return ref_field(out)


def ref_shift_down(a, dm, dn):
    out = {}
    for (m, n), c in a.items():
        if m < dm or n < dn:
            return None
        out[(m - dm, n - dn)] = c
    return ref_field(out)


def ref_divide_by_one_plus_s(a):
    scale = max((abs(c) for c in a.values()), default=0.0) or 1.0
    maxdeg = max((m + n for m, n in a), default=-1)
    rem = dict(a)
    quo = {}
    while rem:
        key = min(rem)
        c = rem.pop(key)
        if abs(c) <= 1e-12 * scale:
            continue
        m, n = key
        if m + n > maxdeg:
            return None
        quo[key] = c
        up = (m + 1, n + 1)
        nxt = rem.get(up, 0j) - c
        if nxt == 0:
            rem.pop(up, None)
        else:
            rem[up] = nxt
    return ref_field(quo)


def same_terms(field, want):
    """``field`` holds exactly the keys of ``want``, int exponents, and
    coefficients of type ``complex`` with the same bits."""
    got = field.terms()
    return got.keys() == want.keys() and all(
        type(m) is int and type(n) is int and type(c) is complex
        and struct.pack("dd", c.real, c.imag) == struct.pack("dd", want[m, n].real, want[m, n].imag)
        for (m, n), c in got.items()
    )


PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, -1e-300, 0.5, 3.0]),
    st.floats(-10.0, 10.0),
)
ALGEBRA_COEFFS = st.one_of(
    st.builds(complex, PARTS, PARTS), PARTS, st.integers(-3, 3)
)
ALGEBRA_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), ALGEBRA_COEFFS, max_size=8
)
SCALARS = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    PARTS,
    st.builds(complex, PARTS, PARTS),
    PARTS.map(np.float64),
    st.builds(complex, PARTS, PARTS).map(np.complex128),
)


class TestCanonicalAlgebra:
    """Every algebra result equals the validating constructor's, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        terms=ALGEBRA_TERMS,
        other=ALGEBRA_TERMS,
        cancel=st.lists(st.booleans(), max_size=8),
        scalar=SCALARS,
        shift=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    @example(  # terms that cancel exactly, signed zeros and 1e+-300
        terms={(1, 0): 1e300 + 1e-300j, (0, 0): complex(-0.0, 2.0)},
        other={(1, 0): -1e300 - 1e-300j, (1, 1): 1e300},
        cancel=[],
        scalar=np.complex128(complex(1e300, -0.0)),
        shift=(1, 0),
    )
    def test_matches_the_validating_constructor(self, terms, other, cancel, scalar, shift):
        f = MonomialField(terms)
        fd = f.terms()
        # make some of g's terms cancel f's under + or -
        for flip, key in zip(cancel, sorted(fd)):
            other[key] = -fd[key] if flip else fd[key]
        g = MonomialField(other)
        gd = g.terms()
        assert same_terms(f, ref_field(terms)) and same_terms(g, ref_field(other))

        with np.errstate(all="ignore"):  # numpy scalars may overflow at 1e300
            cases = [
                (f + g, ref_add(fd, gd)),
                (f + scalar, ref_add(fd, scalar)),
                (scalar + f, ref_add(fd, scalar)),
                (f - g, ref_sub(fd, gd)),
                (f - scalar, ref_sub(fd, scalar)),
                (scalar - f, ref_add(ref_neg(fd), scalar)),
                (-f, ref_neg(fd)),
                (f * g, ref_mul(fd, gd)),
                (f * scalar, ref_mul(fd, scalar)),
                (scalar * f, ref_mul(fd, scalar)),
                (f ** 2, ref_mul(ref_mul(ref_field({(0, 0): 1.0}), fd), fd)),
                (f.conj(), ref_field({(n, m): c.conjugate() for (m, n), c in fd.items()})),
                (f.d_xi(), ref_field({(m - 1, n): m * c for (m, n), c in fd.items() if m > 0})),
                (f.d_xibar(), ref_field({(m, n - 1): n * c for (m, n), c in fd.items() if n > 0})),
            ]
        for got, want in cases:
            assert same_terms(got, want)

        want = ref_shift_down(fd, *shift)
        if want is None:
            with pytest.raises(ValueError):
                f.shift_down(*shift)
        else:
            assert same_terms(f.shift_down(*shift), want)
        for h in (f, f * ONE_PLUS_S):
            want = ref_divide_by_one_plus_s(h.terms())
            got = h.divide_by_one_plus_s()
            assert (got is None) if want is None else same_terms(got, want)
