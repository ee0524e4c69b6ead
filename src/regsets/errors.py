"""Exception types raised by the library."""


class RegsetError(Exception):
    """Base class for every library-specific error."""


class InvalidPermutation(RegsetError):
    """A generator is not a bijection on 0..degree-1."""


class ClosureExceedsCap(RegsetError):
    """Generated set grew past the configured closure cap."""


class NotLatinSquare(RegsetError):
    """A row or column of the multiplication table repeats an entry."""


class NoIdentity(RegsetError):
    pass


class NoInverse(RegsetError):
    pass


class NotAssociative(RegsetError):
    pass


class OrderExceedsCap(RegsetError):
    """Group order is above the configured enumeration cap."""


class PNotDividing(RegsetError):
    pass


class NotNormal(RegsetError):
    pass


class NotDoubleCosetUnion(RegsetError):
    """A set straddles the boundary of some double coset."""


class NotLeftCosetUnion(RegsetError):
    """A set is not a union of left cosets of the given subgroup."""


class IntersectsSubgroup(RegsetError):
    """A connection set meets the subgroup it is defined over."""


class NotInverseClosed(RegsetError):
    pass


class SearchBudgetExceeded(RegsetError):
    """A decision's sweeps reached more states than ``search_node_budget``
    before deciding (distinct from a definite 'absent')."""


class ConstructionFailed(RegsetError):
    """A candidate failed its certificate checks (``checks`` holds all of
    them), or preconditions guaranteed a witness but none was built."""

    def __init__(self, message: str, checks: tuple = ()):
        super().__init__(message)
        self.checks = checks


class PreconditionViolated(RegsetError):
    pass


class FrattiniCheckFailed(RegsetError):
    """The Frattini product identity failed for a Sylow subgroup (indicates a bug)."""


class ParseError(RegsetError):
    pass
