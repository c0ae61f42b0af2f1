import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosscap.errors import ChartDomainError, UnresolvedWinding, VanishingOnLoop
from crosscap.wirtinger import (
    DEFAULT_SAMPLE_COUNT,
    MAX_SAMPLE_COUNT,
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
