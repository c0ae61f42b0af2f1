"""Exception types shared across the package."""


class ChartDomainError(ValueError):
    """Evaluation requested too close to the antipode of the chart."""


class VanishingOnLoop(ValueError):
    """A winding-number integrand dropped below the vanishing threshold on the loop."""


class UnresolvedWinding(RuntimeError):
    """Argument increments stayed too coarse after the refinement cap was reached."""


class BasePointMismatch(ValueError):
    """Two tangent vectors were combined at different base points."""


class NotLagrangian(ValueError):
    """The section fails the integrability test; no single-valued support function exists."""


class NonPolynomialSupport(ValueError):
    """The section is integrable but its support function is not polynomial."""


class OnSeam(ValueError):
    """A piecewise surface was queried exactly on a seam radius."""


class DegenerateZeroCurve(RuntimeError):
    """Zeros of the defect are not isolated (e.g. a circle of complex points)."""


class DegenerateQuadratic(ValueError):
    """The quadratic model sits exactly on the elliptic/hyperbolic boundary."""


class BadParams(ValueError):
    """Construction parameters violate their admissible range."""


class FactorizationFailed(RuntimeError):
    """An expected exact polynomial factorization did not hold."""


class NotHyperbolic(ValueError):
    """A blow-up removal targeted a complex point whose index is not -1."""


class NotImmersed(RuntimeError):
    """The first fundamental form degenerated on the evaluation grid."""


class EmptyMesh(ValueError):
    """A mesh operation received an empty or sub-minimal grid."""
