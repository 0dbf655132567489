"""Exception classes for estimation failures.

Unit-domain violations (non-positive distances, empty sample sets, bad
config) raise plain ValueError; these classes mark failures of the
estimation problems themselves.
"""


class LocalizationError(Exception):
    """Base class for estimation failures."""


class InsufficientAnchorsError(LocalizationError):
    """Fewer anchors than the solver needs."""


class DegenerateGeometryError(LocalizationError):
    """Anchor layout leaves the position underdetermined (collinear set),
    or the ranges put the solution outside the float range."""


class SingularGeometryError(LocalizationError):
    """Range Jacobian undefined: evaluation point coincides with an anchor."""


class FilterDivergenceError(LocalizationError):
    """The range filter cannot correct: singular innovation covariance or
    a state outside the float range. A seed batch raises it after it has
    yielded the runs of the seeds before the diverged one."""


class NoResolvedStepsError(LocalizationError):
    """A run produced no steps with a position fix."""


class CapacityError(LocalizationError):
    """A planner output would exceed the configured size limit."""
