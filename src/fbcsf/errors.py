"""Exception hierarchy for the fbcsf package.

Every failure mode that a caller might want to branch on gets its own
class.
"""


class FBCSFError(Exception):
    """Base class for all package errors."""


class ConfigError(FBCSFError):
    """Malformed or inconsistent configuration input."""


class GeometryError(FBCSFError):
    """Domain construction or interrogation failed."""


class NonClosing(GeometryError):
    """Curvature data does not integrate to a closed curve.

    Carries the closure residual (norm of the first-harmonic defect)
    in ``residual``.
    """

    def __init__(self, residual):
        self.residual = float(residual)
        super().__init__(f"boundary does not close: residual={residual:.3e}")


class NonConvex(GeometryError):
    """Radius-of-curvature function is not strictly positive."""


class RhoTooLarge(GeometryError):
    """Requested contact height exceeds what the domain admits."""


class SolverError(FBCSFError):
    """Numerical solve failed (root finding, time stepping, ...)."""


class BracketFailure(SolverError):
    """Root bracketing failed: no sign change on the search interval."""


class NoRoot(SolverError):
    """A required root does not exist on the admissible interval."""


class LambdaOutOfRange(SolverError):
    """Oval scale parameter left its admissible interval."""


class InvalidScale(SolverError):
    """Scale parameter fails its positivity/admissibility constraint."""


class StepRejected(SolverError):
    """flow.step found no step it could take: it halves dt after each
    FlowError, and raises this when the attempt after the 20th halving
    fails too."""


class FlowError(SolverError):
    """One step attempt failed: a singular or non-finite linear system, a
    failed contact solve, a wall angle off the wall's table, or a stepped
    curve that is not convex.  flow.step answers it by halving dt and
    trying again."""


class NonExtinction(SolverError):
    """Flow reached its step budget without extinguishing."""


class AnalysisError(FBCSFError):
    """Post-processing of a trajectory failed."""


class UnknownRecord(AnalysisError, KeyError):
    """A report has no record of the requested name.  It is a KeyError
    too, so a lookup's ``except KeyError`` still catches it."""


class WindowTooShort(AnalysisError):
    """Fit window contains too few samples to regress."""


class NonPositiveAmplitude(AnalysisError):
    """Profile amplitude extrapolated to a non-positive value."""
