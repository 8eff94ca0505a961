"""Exception types shared across the package."""


class SectorRootsError(Exception):
    """Base class for all package errors."""


class OverflowRegion(SectorRootsError):
    """Re q exceeds the safe exponent range somewhere on the integration path."""


class ToleranceNotMet(SectorRootsError):
    """Adaptive refinement hit its depth limit before reaching the tolerance."""


class BoundaryTooClose(SectorRootsError):
    """f - a vanishes (or nearly vanishes) on a contour; the contour must move."""


class NoConvergence(SectorRootsError):
    """Newton iteration failed to converge from the given seed."""


class DerivativeVanishes(SectorRootsError):
    """f' is numerically zero at an iterate; Newton cannot proceed."""


class DegreeZero(SectorRootsError):
    """deg q = 0: no critical rays or asymptotic values exist."""


class EmptyRaySet(SectorRootsError):
    """An operation that needs at least one ray received none."""


class NonPositiveLogM(SectorRootsError):
    """log M(r) <= 1 somewhere on the grid; the radius grid is too small."""


class TailTooLarge(SectorRootsError):
    """Truncated product tail cannot reach the requested accuracy."""


class BoundViolated(SectorRootsError):
    """A kernel bound fails on the requested grid."""


class CounterexampleFound(SectorRootsError):
    """Exhaustive enumeration found a configuration violating an expected law."""
