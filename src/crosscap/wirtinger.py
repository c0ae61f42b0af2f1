"""Exact polynomial calculus in a complex chart variable and its conjugate.

A ``MonomialField`` stores a finite sum

    f(xi) = sum_{m,n} c_mn xi^m xibar^n

as a map ``(m, n) -> c_mn``.  Addition, multiplication, conjugation and the
Wirtinger derivatives d/dxi, d/dxibar act exactly on the exponents; only the
scalar coefficient arithmetic is floating point.  A ``RationalField`` divides
a monomial field by a power of ``(1 + xi*xibar)``, which is the only
denominator the chart geometry ever produces.

The same classes double as generic bivariate polynomials via ``eval_pair``,
where the second variable is evaluated independently instead of at the
conjugate.  Evaluation is Horner's scheme from a plan each field builds once
and caches; every power of ``xi`` or ``xibar`` a Horner gap needs is computed
once per call and shared.  The operations and their order are those of the
plain Horner loop, so the values are bit-identical to it.

One routine, ``winding_of``, turns a function on a circle into a winding
number: it sums principal-branch argument increments, doubling the sampling
until every increment is below pi/2.
"""

import math
from numbers import Integral, Real

import numpy as np

from .errors import ChartDomainError, UnresolvedWinding, VanishingOnLoop

# Single north chart: evaluations this close to the antipode are rejected
# rather than re-charted.
CHART_BOUND = 1e3

DEFAULT_MIN_MAG = 1e-9
DEFAULT_SAMPLE_COUNT = 256
MAX_SAMPLE_COUNT = 2 ** 16

DIVISION_REL_TOL = 1e-12  # remainder dropped by divide_by_one_plus_s, relative


def require_radius(radius, what):
    """Reject a radius that is not a positive finite number; ``what`` names it."""
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"{what} must be positive and finite, got {radius!r}")


class _Powers(dict):
    """``d -> base ** d``, each power computed on first use and then shared."""

    __slots__ = ("base",)

    def __init__(self, base):
        self.base = base

    def __missing__(self, d):
        power = self[d] = self.base ** d
        return power


class MonomialField:
    """Finite sum of monomials ``c_mn xi^m xibar^n`` in canonical form.

    Canonical form means no stored zero coefficients.  Instances are
    immutable: every operation returns a new field, so values are safe to
    share between threads and across parallel grid sweeps.
    """

    __slots__ = ("_terms", "_plan")

    def __init__(self, terms=None):
        clean = {}
        for (m, n), c in (terms or {}).items():
            m = int(m)
            n = int(n)
            if m < 0 or n < 0:
                raise ValueError(f"negative exponent in term ({m}, {n})")
            c = complex(c)
            if c != 0:
                clean[(m, n)] = clean.get((m, n), 0j) + c
        self._terms = {k: v for k, v in clean.items() if v != 0}
        self._plan = None  # eval_pair's Horner plan, built on first use

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, m, n):
        return cls({(m, n): 1.0})

    @classmethod
    def xi(cls):
        return cls({(1, 0): 1.0})

    @classmethod
    def xibar(cls):
        return cls({(0, 1): 1.0})

    # -- views ---------------------------------------------------------

    def terms(self):
        """Return a copy of the coefficient map ``(m, n) -> c_mn``."""
        return dict(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, MonomialField):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def degree(self):
        """Total degree, or -1 for the zero field."""
        if not self._terms:
            return -1
        return max(m + n for m, n in self._terms)

    def max_abs_coeff(self):
        if not self._terms:
            return 0.0
        return max(abs(c) for c in self._terms.values())

    def allclose(self, other, tol=1e-12):
        """Coefficient-wise comparison with absolute tolerance ``tol``."""
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0j) - other._terms.get(k, 0j)) <= tol for k in keys
        )

    def __repr__(self):
        if not self._terms:
            return "MonomialField(0)"
        bits = []
        for (m, n), c in sorted(self._terms.items()):
            bits.append(f"({c:.6g})*xi^{m}*xibar^{n}")
        return "MonomialField(" + " + ".join(bits) + ")"

    # -- algebra --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = MonomialField.constant(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0j) + c
        return MonomialField(out)

    __radd__ = __add__

    def __neg__(self):
        return MonomialField({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = MonomialField.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return MonomialField({k: c * other for k, c in self._terms.items()})
        out = {}
        for (m1, n1), c1 in self._terms.items():
            for (m2, n2), c2 in other._terms.items():
                k = (m1 + m2, n1 + n2)
                out[k] = out.get(k, 0j) + c1 * c2
        return MonomialField(out)

    __rmul__ = __mul__

    def __pow__(self, p):
        if p != int(p) or p < 0:
            raise ValueError("only nonnegative integer powers")
        out = MonomialField.constant(1.0)
        for _ in range(int(p)):
            out = out * self
        return out

    def conj(self):
        """Complex conjugate field: conj(f)(xi) == conj(f evaluated at xi)."""
        return MonomialField({(n, m): c.conjugate() for (m, n), c in self._terms.items()})

    def is_real_symmetric(self, tol=1e-12):
        """True when ``c_nm == conj(c_mn)`` for every term (real-valued field)."""
        scale = self.max_abs_coeff() or 1.0
        for (m, n), c in self._terms.items():
            if abs(self._terms.get((n, m), 0j) - c.conjugate()) > tol * scale:
                return False
        return True

    # -- calculus --------------------------------------------------------

    def d_xi(self):
        """Exact Wirtinger derivative d/dxi: ``xi^m xibar^n -> m xi^(m-1) xibar^n``."""
        return MonomialField(
            {(m - 1, n): m * c for (m, n), c in self._terms.items() if m > 0}
        )

    def d_xibar(self):
        """Exact Wirtinger derivative d/dxibar."""
        return MonomialField(
            {(m, n - 1): n * c for (m, n), c in self._terms.items() if n > 0}
        )

    # -- evaluation --------------------------------------------------------

    def eval(self, xi):
        """Evaluate at ``xi`` (scalar or ndarray), taking xibar = conj(xi).

        Points with ``|xi| > CHART_BOUND`` live too close to the antipode of
        the chart and are rejected with ``ChartDomainError``.
        """
        z = np.asarray(xi, dtype=complex)
        if z.size and np.max(np.abs(z)) > CHART_BOUND:
            raise ChartDomainError(
                f"|xi| exceeds the chart bound {CHART_BOUND:g}; re-charting is unsupported"
            )
        out = self.eval_pair(z, np.conj(z))
        if np.isscalar(xi) or np.asarray(xi).ndim == 0:
            return complex(out)
        return out

    def eval_pair(self, z, w):
        """Evaluate treating the conjugate slot as the independent variable ``w``.

        Horner's scheme is applied in ``w`` inside each group of equal
        xi-power and then in ``z`` across groups.  The grouping is the
        field's plan, built on the first call and cached (fields are
        immutable); each power ``w ** d`` and ``z ** d`` a Horner gap needs
        is computed once per call and shared by every gap of that size.  The
        multiply and add sequence is the plain Horner loop's, so the result
        is bit-identical to it.
        """
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        if not self._terms:
            return np.zeros(np.broadcast(z, w).shape, dtype=complex) if z.ndim or w.ndim else 0j
        if self._plan is None:
            self._plan = self._horner_plan()
        groups, m_last = self._plan
        zp, wp = _Powers(z), _Powers(w)
        acc = None
        for m_gap, inner, steps, n_last in groups:
            for gap, c in steps:
                inner = inner * wp[gap] + c
            if n_last:
                inner = inner * wp[n_last]
            acc = inner if acc is None else acc * zp[m_gap] + inner
        if m_last:
            acc = acc * zp[m_last]
        return acc

    def _horner_plan(self):
        """``(groups, m_last)`` for ``eval_pair``, in one pass over the sorted terms.

        ``groups`` runs over the xi-powers m in decreasing order; each entry
        is ``[m_gap, first, steps, n_last]``: the gap down from the previous
        m (0 for the first group), the leading coefficient ``+ 0j``, the
        ``(n_gap, coeff)`` Horner steps in decreasing n, and the trailing
        xibar power.  ``m_last`` is the trailing xi power.
        """
        # Lists, not tuples: CPython keeps up to 2000 freed tuples of each
        # small length for reuse, and plans of short-lived fields filled
        # those pools (about 1 MB more peak RSS on the sections benchmark).
        terms = self._terms
        groups = []
        prev_m = None
        for m, n in sorted(terms, reverse=True):
            if m == prev_m:
                group[2].append((group[3] - n, terms[m, n]))
                group[3] = n
            else:
                group = [0 if prev_m is None else prev_m - m, terms[m, n] + 0j, [], n]
                groups.append(group)
                prev_m = m
        return groups, prev_m

    # -- structure helpers -------------------------------------------------

    def shift_down(self, dm, dn):
        """Exact division by ``xi^dm xibar^dn``; raises if any term is too low."""
        out = {}
        for (m, n), c in self._terms.items():
            if m < dm or n < dn:
                raise ValueError(f"term ({m},{n}) not divisible by xi^{dm} xibar^{dn}")
            out[(m - dm, n - dn)] = c
        return MonomialField(out)

    def divide_by_one_plus_s(self):
        """Divide exactly by ``1 + xi*xibar``; returns None when not divisible.

        Long division from the lexicographically lowest term; the quotient is
        accepted only when the residual coefficients are below
        ``DIVISION_REL_TOL`` times the coefficient scale.
        """
        scale = self.max_abs_coeff() or 1.0
        maxdeg = self.degree()
        rem = dict(self._terms)
        quo = {}
        while rem:
            key = min(rem)
            c = rem.pop(key)
            if abs(c) <= DIVISION_REL_TOL * scale:
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
        return MonomialField(quo)

    # -- wire format ---------------------------------------------------------

    def to_records(self):
        """List of ``{m, n, re, im}`` records; bit-exact round trip via JSON."""
        return [
            {"m": m, "n": n, "re": c.real, "im": c.imag}
            for (m, n), c in sorted(self._terms.items())
        ]

    @classmethod
    def from_records(cls, records):
        """Inverse of ``to_records``; raises ``ValueError`` on anything but a
        list of ``{m, n, re[, im]}`` records with integer exponents and finite
        coefficients."""
        if not isinstance(records, (list, tuple)):
            raise ValueError("a field must be a list of {m, n, re, im} records")
        terms = {}
        for rec in records:
            if not isinstance(rec, dict) or not {"m", "n", "re"} <= rec.keys():
                raise ValueError(f"not an {{m, n, re, im}} record: {rec!r}")
            m, n, re, im = rec["m"], rec["n"], rec["re"], rec.get("im", 0.0)
            if not all(isinstance(k, Integral) and not isinstance(k, bool) for k in (m, n)):
                raise ValueError(f"exponents must be integers: {rec!r}")
            if not all(
                isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)
                for v in (re, im)
            ):
                raise ValueError(f"coefficients must be finite numbers: {rec!r}")
            terms[(m, n)] = complex(re, im)
        return cls(terms)


# 1 + xi xibar, shared by every caller (fields are immutable).
ONE_PLUS_S = MonomialField({(0, 0): 1.0, (1, 1): 1.0})


class RationalField:
    """A quotient ``num / (1 + xi*xibar)**den_power``, defined on the whole chart."""

    __slots__ = ("num", "den_power")

    def __init__(self, num, den_power=0):
        if den_power < 0 or den_power != int(den_power):
            raise ValueError("den_power must be a nonnegative integer")
        self.num = num
        self.den_power = int(den_power)

    def __eq__(self, other):
        if not isinstance(other, RationalField):
            return NotImplemented
        return self.den_power == other.den_power and self.num == other.num

    def __repr__(self):
        return f"RationalField({self.num!r}, den_power={self.den_power})"

    def eval(self, xi):
        num = self.num.eval(xi)  # rejects points outside the chart before s can overflow
        z = np.asarray(xi, dtype=complex)
        s = (z * np.conj(z)).real
        out = num / (1.0 + s) ** self.den_power
        if np.isscalar(xi) or np.asarray(xi).ndim == 0:
            return complex(out)
        return out

    def conj(self):
        return RationalField(self.num.conj(), self.den_power)

    def __mul__(self, scalar):
        return RationalField(self.num * scalar, self.den_power)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, RationalField):
            other = RationalField(MonomialField.constant(other), 0)
        p = max(self.den_power, other.den_power)
        a = self.num * ONE_PLUS_S ** (p - self.den_power)
        b = other.num * ONE_PLUS_S ** (p - other.den_power)
        return RationalField(a + b, p)

    def __sub__(self, other):
        if not isinstance(other, RationalField):
            other = RationalField(MonomialField.constant(other), 0)
        return self + RationalField(-other.num, other.den_power)

    def d_xi(self):
        # d/dxi [num / (1+s)^p] = [d_xi(num)(1+s) - p xibar num] / (1+s)^(p+1)
        p = self.den_power
        num = self.num.d_xi() * ONE_PLUS_S - p * MonomialField.xibar() * self.num
        return RationalField(num, p + 1)

    def d_xibar(self):
        p = self.den_power
        num = self.num.d_xibar() * ONE_PLUS_S - p * MonomialField.xi() * self.num
        return RationalField(num, p + 1)

    def reduced(self):
        """Cancel factors of ``1 + xi*xibar`` shared by numerator and denominator."""
        num, p = self.num, self.den_power
        while p > 0:
            q = num.divide_by_one_plus_s()
            if q is None:
                break
            num, p = q, p - 1
        return RationalField(num, p)


class Loop:
    """A sampling circle: center and radius."""

    __slots__ = ("center", "radius")

    def __init__(self, center, radius):
        require_radius(radius, "loop radius")
        self.center = complex(center)
        self.radius = float(radius)

    def samples(self, count=DEFAULT_SAMPLE_COUNT):
        """Uniformly spaced points on the circle, counterclockwise from angle 0."""
        theta = 2.0 * np.pi * np.arange(count) / count
        return self.center + self.radius * np.exp(1j * theta)

    def __repr__(self):
        return f"Loop(center={self.center}, radius={self.radius})"


def winding_of(func, loop, min_mag=DEFAULT_MIN_MAG, cap_increment=np.pi / 2):
    """Winding number of ``func`` around ``loop``, refining the sampling.

    Sums principal-branch argument increments between samples, doubling the
    sample count from ``DEFAULT_SAMPLE_COUNT`` until every increment is below
    pi/2.  At ``MAX_SAMPLE_COUNT`` they need only be below ``cap_increment``,
    which may be raised up to pi: samples there are 1e-4 loop radii apart, so
    a simple zero falls on the wrong side of a chord only within about 1e-9
    radii of the circle.  Raises ``VanishingOnLoop`` as soon as a value is
    below ``min_mag`` and ``UnresolvedWinding`` when the cap is not enough.
    """
    n = DEFAULT_SAMPLE_COUNT
    while True:
        vals = np.asarray(func(loop.samples(n)), dtype=complex)
        if np.min(np.abs(vals)) < min_mag:
            raise VanishingOnLoop(
                f"|value| dropped below min_mag={min_mag:g} on loop of radius {loop.radius:g}"
            )
        incs = np.angle(np.roll(vals, -1) / vals)
        worst = np.max(np.abs(incs))
        if worst >= np.pi / 2 and 2 * n <= MAX_SAMPLE_COUNT:
            n *= 2
            continue
        if worst >= cap_increment:
            raise UnresolvedWinding(
                f"increments still reach {cap_increment:.4g} at the sample cap {MAX_SAMPLE_COUNT}"
            )
        total = incs.sum() / (2.0 * np.pi)
        w = round(total)
        if abs(total - w) > 1e-6:
            raise UnresolvedWinding(f"argument sum {total!r} is not an integer multiple of 2*pi")
        return int(w)
