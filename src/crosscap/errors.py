"""Exception types shared across the package.

Every class derives from ``CrosscapError``, which the command line reports as
exit 1 with a one-line message, and keeps its ``ValueError`` or
``RuntimeError`` base for callers that catch those.
"""


class CrosscapError(Exception):
    """A failure the library detected and typed."""


class ChartDomainError(CrosscapError, ValueError):
    """Evaluation requested too close to the antipode of the chart."""


class VanishingOnLoop(CrosscapError, ValueError):
    """A winding-number integrand dropped below the vanishing threshold on the loop."""


class UnresolvedWinding(CrosscapError, RuntimeError):
    """Argument increments stayed too coarse after the refinement cap was reached."""


class BasePointMismatch(CrosscapError, ValueError):
    """Two tangent vectors were combined at different base points."""


class NotLagrangian(CrosscapError, ValueError):
    """The section fails the integrability test; no single-valued support function exists."""


class NonPolynomialSupport(CrosscapError, ValueError):
    """The section is integrable but its support function is not polynomial."""


class OnSeam(CrosscapError, ValueError):
    """A piecewise surface was queried exactly on a seam radius."""


class DegenerateZeroCurve(CrosscapError, RuntimeError):
    """Zeros of the defect are not isolated (e.g. a circle of complex points)."""


class DegenerateQuadratic(CrosscapError, ValueError):
    """The quadratic model sits exactly on the elliptic/hyperbolic boundary."""


class BadParams(CrosscapError, ValueError):
    """Construction parameters violate their admissible range."""


class FactorizationFailed(CrosscapError, RuntimeError):
    """An expected exact polynomial factorization did not hold."""


class NotHyperbolic(CrosscapError, ValueError):
    """A blow-up removal targeted a complex point whose index is not -1."""


class NotImmersed(CrosscapError, RuntimeError):
    """The first fundamental form degenerated on the evaluation grid."""


class EmptyMesh(CrosscapError, ValueError):
    """A mesh operation received an empty or sub-minimal grid."""
