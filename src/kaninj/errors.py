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
    """A monotone-map search visited more nodes than its cap allows.

    Names the search that ran out: dom_n and cod_n are the sizes of the
    domain and codomain of the maps searched, visited the nodes visited
    when it stopped.
    """

    def __init__(self, cap: int, dom_n: int, cod_n: int, visited: int):
        self.cap = cap
        self.dom_n = dom_n
        self.cod_n = cod_n
        self.visited = visited
        super().__init__(
            f"monotone map search from a {dom_n}-element poset into a "
            f"{cod_n}-element poset exceeded cap of {cap} nodes "
            f"({visited} visited); set KANINJ_SIZE_CAP to raise it"
        )


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
