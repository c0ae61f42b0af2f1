"""Correctness oracles that share no code with the library.

Every oracle here works from the raw coefficient maps ``{(m, n): c}`` of the
fields the library built (or from the benchmark's own inputs) and from the
library's outputs, never from library functions:

* ``sturm_root_count``: exact count of distinct real roots of a univariate
  polynomial on a closed interval, with ``fractions.Fraction`` arithmetic.
* ``profile_defect_h`` / ``profile_defect_roots``: for a profile piece with
  ``W = nubar * h(s)``, the exact coefficients of ``h`` and the exact Sturm
  count of its roots on ``[rho_in^2, rho_out^2]``.
* ``profile_grid_min``: the smallest |W| a radius-by-angle grid sees on a
  profile piece, from ``h`` alone.
* ``winding``: argument-principle winding of a coefficient map on a circle;
  ``winding_near`` also answers when a zero sits on the circle.
* ``check_csv_text`` / ``check_obj_text``: parse-back of exported text.
"""

import itertools
from fractions import Fraction

import numpy as np


class OracleError(Exception):
    """An oracle could not reach a verdict on its input."""


# -- polynomials in (z, zbar) as coefficient maps ---------------------------


def poly_add(*polys):
    out = {}
    for p in polys:
        for k, c in p.items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c != 0}


def poly_mul(p, q):
    out = {}
    for (m1, n1), c1 in p.items():
        for (m2, n2), c2 in q.items():
            k = (m1 + m2, n1 + n2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def poly_scale(p, s):
    return {k: c * s for k, c in p.items() if c * s != 0}


def poly_dz(p):
    return {(m - 1, n): m * c for (m, n), c in p.items() if m > 0}


def poly_dzbar(p):
    return {(m, n - 1): n * c for (m, n), c in p.items() if n > 0}


def poly_conj(p):
    return {(n, m): complex(c).conjugate() for (m, n), c in p.items()}


def poly_eval(p, z):
    """Direct monomial sum of ``c z^m zbar^n`` at the points ``z``."""
    z = np.asarray(z, dtype=complex)
    zb = np.conj(z)
    out = np.zeros(z.shape, dtype=complex)
    for (m, n), c in p.items():
        out += complex(c) * z ** m * zb ** n
    return out


def section_dbar(support):
    """dbar F for the section F = (1/2) (1 + z zbar)^2 conj(dr/dz) of a support map."""
    one_plus_s = {(0, 0): 1.0, (1, 1): 1.0}
    F = poly_scale(
        poly_mul(poly_mul(one_plus_s, one_plus_s), poly_conj(poly_dz(support))), 0.5
    )
    return poly_dzbar(F)


# -- exact univariate root counting ----------------------------------------


def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _peval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _prem(a, b):
    """Remainder of a / b for coefficient lists (lowest degree first)."""
    a = list(a)
    lead = b[-1]
    while len(a) >= len(b) and a:
        q = a[-1] / lead
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a = _trim(a[:-1])
    return a


def _sign_changes(seq, x):
    signs = [v for v in (_peval(p, x) for p in seq) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a < 0) != (b < 0))


def sturm_root_count(coeffs, lo, hi):
    """Number of distinct real roots of ``sum coeffs[k] x^k`` in ``[lo, hi]``.

    Coefficients and endpoints are converted to exact ``Fraction`` values, so
    the count is exact for the polynomial the floats represent.  The zero
    polynomial raises ``OracleError``.
    """
    p = _trim([Fraction(c) for c in coeffs])
    if not p:
        raise OracleError("the zero polynomial has no finite root count")
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise OracleError("empty interval")
    seq = [p, _trim([k * c for k, c in enumerate(p)][1:])]
    while seq[-1]:
        seq.append([-c for c in _prem(seq[-2], seq[-1])])
    seq.pop()
    # Sturm's theorem counts the roots in (lo, hi]; a root at lo is added.
    return _sign_changes(seq, lo) - _sign_changes(seq, hi) + (_peval(p, lo) == 0)


def _real_fraction(c):
    c = complex(c)
    if c.imag != 0:
        raise OracleError("profile coefficient is not real")
    return Fraction(c.real)


def profile_defect_h(xi_terms, eta_terms):
    """Exact coefficients of h, lowest degree first, where W = nubar h(nu nubar).

    ``W = d_eta dbar_xi - dbar_eta d_xi`` is expanded in exact rationals from
    the float coefficients of the chart maps; a term of W that is not of the
    form ``(k, k+1)`` means the piece is not a profile piece and raises
    ``OracleError``.
    """
    xi = {k: _real_fraction(c) for k, c in xi_terms.items()}
    eta = {k: _real_fraction(c) for k, c in eta_terms.items()}
    W = poly_add(
        poly_mul(poly_dz(eta), poly_dzbar(xi)),
        poly_scale(poly_mul(poly_dzbar(eta), poly_dz(xi)), -1),
    )
    h = {}
    for (m, n), c in W.items():
        if n != m + 1:
            raise OracleError(f"defect term ({m}, {n}) is not nubar times a power of s")
        h[m] = c
    if not h:
        raise OracleError("the defect vanishes identically")
    return [h.get(k, Fraction(0)) for k in range(max(h) + 1)]


def profile_defect_roots(h, rho_in, rho_out):
    """Exact root count of h on ``[rho_in^2, rho_out^2]``: the circles of
    complex points of a profile piece on that annulus."""
    lo, hi = Fraction(rho_in), Fraction(rho_out)
    return sturm_root_count(h, lo * lo, hi * hi)


def profile_grid_min(h, rho_in, rho_out, radial_n):
    """Smallest |W| of a profile piece over the radii
    ``np.linspace(rho_in, rho_out, radial_n)``.

    On the circle of radius r, ``|W| = r |h(r^2)|`` whatever the angle, so
    this is the minimum over every (radius, angle) grid on those radii.
    """
    radii = np.linspace(rho_in, rho_out, radial_n)
    values = radii * np.abs(np.polynomial.polynomial.polyval(radii * radii, [float(c) for c in h]))
    return float(np.min(values))


# -- argument principle -----------------------------------------------------


def _arg_increments(poly, center, radius, n, chunk=1 << 15):
    """(sum, largest magnitude, smallest |value|) of the argument increments of
    ``poly`` over n equally spaced points on the circle, in bounded memory."""
    total, worst, smallest = 0.0, 0.0, np.inf
    first = prev = None
    for lo in range(0, n, chunk):
        k = np.arange(lo, min(n, lo + chunk))
        vals = poly_eval(poly, center + radius * np.exp(2j * np.pi * k / n))
        smallest = min(smallest, float(np.min(np.abs(vals))))
        if smallest == 0:
            return total, np.inf, 0.0
        if first is None:
            first = vals[0]
        else:
            vals = np.concatenate(([prev], vals))
        incs = np.angle(vals[1:] / vals[:-1])
        prev = vals[-1]
        total += float(incs.sum())
        worst = max(worst, float(np.max(np.abs(incs), initial=0.0)))
    last = float(np.angle(first / prev))
    return total + last, max(worst, abs(last)), smallest


def winding(poly, radius, center=0j, start=1024, max_samples=2 ** 20):
    """Winding number of the map ``poly`` around the circle |z - center| = radius.

    The sample count doubles until every argument increment is below pi/4.
    A value within 1e-12 of zero (relative to the coefficient scale), or
    increments that stay large at ``max_samples``, mean a zero sits on the
    circle and raise ``OracleError``.
    """
    scale = max((abs(c) for c in poly.values()), default=0.0)
    if scale == 0:
        raise OracleError("the map vanishes identically")
    n = start
    while n <= max_samples:
        total, worst, smallest = _arg_increments(poly, center, radius, n)
        if smallest < 1e-12 * scale:
            raise OracleError("the map vanishes on the circle")
        if worst < np.pi / 4:
            turns = total / (2.0 * np.pi)
            w = round(turns)
            if abs(turns - w) > 1e-6:
                raise OracleError(f"argument sum {turns!r} is not a whole turn")
            return int(w)
        n *= 2
    raise OracleError("argument increments stay large at the sample cap")


def winding_near(poly, radius, rel_gap=1e-4):
    """Windings on the circle of ``radius``, or, when a zero sits on it, on the
    circles just inside and just outside; returns the set of admissible values."""
    try:
        return {winding(poly, radius)}
    except OracleError:
        return {winding(poly, radius * (1 - rel_gap)), winding(poly, radius * (1 + rel_gap))}


# -- parse-back of exported text -----------------------------------------------


NUMPY_SCALAR_TEXT = "np.float64("
CSV_BLOCK_ROWS = 4096


def check_csv_text(text, header, expected_rows=None):
    """Check CSV text field by field.

    Every field must parse with ``float()``.  With ``expected_rows``, a float
    array of shape (rows, columns), the parsed values must equal it bit for
    bit; without it, every field must be the shortest repr of its float, so
    that the text round-trips bit-exactly.  A field written as
    ``np.float64(<number>)`` fails; the wrapper is stripped and the number
    inside is held to the same checks.  Returns ``(ok, reason,
    wrapped_only)``, where ``wrapped_only`` is true when such wrappers are
    the only fault of the text.
    """
    lines = _lines(text)
    if next(lines, None) != header:
        return False, "header mismatch", False
    width = header.count(",") + 1
    wrapped = False
    n_rows = 0
    # Rows go in blocks, so the checker's memory stays below that of the job
    # whose output it reads.
    while block := list(itertools.islice(lines, CSV_BLOCK_ROWS)):
        want = None
        if expected_rows is not None:
            want = expected_rows[n_rows : n_rows + len(block)]
            if len(want) < len(block):
                return False, f"more than {len(expected_rows)} rows", False
        bad, block_wrapped = _check_csv_rows(block, width, want)
        if bad:
            row, reason = bad
            return False, f"row {n_rows + row}: {reason}", False
        wrapped = wrapped or block_wrapped
        n_rows += len(block)
    if expected_rows is not None and n_rows != len(expected_rows):
        return False, f"{n_rows} rows, expected {len(expected_rows)}", False
    if wrapped:
        return False, f"fields written as {NUMPY_SCALAR_TEXT}...)", True
    return True, "", False


def _lines(text):
    """The lines of ``text`` one at a time, as ``text.split("\\n")`` without a
    trailing empty line."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        yield text[start:end]
        start = end + 1


def _check_csv_rows(lines, width, expected_rows):
    """``((row, reason) or None, wrapped)`` for one block of CSV lines."""
    rows = [line.split(",") for line in lines]
    for i, fields in enumerate(rows):
        if len(fields) != width:
            return (i, "wrong field count"), False
    flat = [f for fields in rows for f in fields]
    cut = len(NUMPY_SCALAR_TEXT)
    inner = [f[cut:-1] if f.startswith(NUMPY_SCALAR_TEXT) and f.endswith(")") else f for f in flat]
    try:
        values = [float(f) for f in inner]
    except ValueError:
        k = next(k for k, f in enumerate(inner) if not _is_float(f))
        return (k // width, "field is not a float literal"), False
    if expected_rows is None:
        if any(map(str.__ne__, map(repr, values), inner)):
            k = next(k for k, (v, f) in enumerate(zip(values, inner)) if repr(v) != f)
            return (k // width, "field is not the shortest float repr"), False
    else:
        got = np.array(values, dtype=np.float64).reshape(-1, width).view(np.uint64)
        want = np.ascontiguousarray(expected_rows, dtype=np.float64).view(np.uint64)
        bad = np.flatnonzero((got != want).any(axis=1))
        if bad.size:
            return (int(bad[0]), "parsed value differs from the written value"), False
    return None, inner != flat


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def check_obj_text(text, points=None, rows=None, cols=None, rel_tol=5e-9):
    """Check OBJ text: vertex lines parse, match ``points`` to ``.9g``, faces index them.

    Returns ``(ok, reason)``.
    """
    verts = []
    faces = 0
    n_vert = None
    for line in text.split("\n"):
        if line.startswith("v "):
            parts = line.split()
            if len(parts) != 4:
                return False, "vertex line without three coordinates"
            try:
                verts.append([float(p) for p in parts[1:]])
            except ValueError:
                return False, "vertex coordinate is not a float literal"
        elif line.startswith("f "):
            if n_vert is None:
                n_vert = len(verts)
            try:
                idx = [int(p) for p in line.split()[1:]]
            except ValueError:
                return False, "face index is not an integer"
            if len(idx) != 4 or min(idx) < 1 or max(idx) > n_vert:
                return False, "face index out of range"
            faces += 1
        elif line:
            return False, "unknown line type"
    got = np.array(verts, dtype=float).reshape(-1, 3)
    if points is not None:
        want = np.asarray(points, dtype=float).reshape(-1, 3)
        if got.shape != want.shape:
            return False, f"{len(got)} vertices, expected {len(want)}"
        if np.any(np.abs(got - want) > rel_tol * np.abs(want) + 1e-300):
            return False, "vertex differs from the mesh beyond .9g precision"
    if not np.all(np.isfinite(got)):
        return False, "non-finite vertex"
    if rows is not None and faces != (rows - 1) * (cols - 1):
        return False, f"{faces} faces, expected {(rows - 1) * (cols - 1)}"
    return True, ""
