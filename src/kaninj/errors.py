"""Exception types shared across the package."""


class KanInjError(Exception):
    """Base class for all package-specific errors."""


class DuplicateLabel(KanInjError):
    pass


class UnknownLabel(KanInjError):
    pass


class CycleDetected(KanInjError):
    """The stated inequalities force x <= y <= x for distinct x, y."""


class SizeCapExceeded(KanInjError):
    """An enumeration exceeded the configured search cap."""


class NotMonotone(KanInjError):
    pass


class DomainMismatch(KanInjError):
    """Two maps that should share a (co)domain do not."""


class NotParallel(KanInjError):
    """Two-cell endpoints are not a parallel pair."""


class InvalidTwoCell(KanInjError):
    """The requested two-cell does not exist (source not pointwise below target)."""


class NotComposable(KanInjError):
    pass


class NotLari(KanInjError):
    """A map required to be a left adjoint right inverse is not one."""


class SquareDoesNotCommute(KanInjError):
    pass


class NotInjectiveContext(KanInjError):
    """An operation needed a Kan-injective (co)domain and did not get one."""


class NotInjectiveTarget(NotInjectiveContext):
    """Extension target is not strongly Kan-injective for the given class."""


class QuotientViolation(KanInjError):
    """A cocone assignment is not constant on a quotient class."""


class PostconditionFailed(KanInjError):
    """A construction's own result broke a property the construction
    guarantees.  This means a bug, not bad input; unlike an ``assert`` the
    check still runs under ``python -O``."""


class NotConverged(KanInjError):
    """The reflection chain did not converge within the step budget."""
