"""Exception hierarchy for the congames package.

Input/format problems and algorithmic failure modes get distinct types so
callers (and the CLI exit-code mapping) can tell them apart.
"""


class CongamesError(Exception):
    """Base class for all congames-specific errors."""


class InstanceError(CongamesError):
    """A game instance (file or in-memory construction) violates the format."""


class MalformedInstanceError(InstanceError):
    """Syntactically broken input: bad JSON, wrong types, unknown keys."""


class NegativeCoefficientError(InstanceError):
    """A resource cost polynomial has a negative coefficient."""


class EmptyStrategyError(InstanceError):
    """A player has no strategies, or a strategy with no resources."""


class ResourceIndexError(InstanceError):
    """A strategy references a resource index that does not exist."""


class DegreeMismatchError(InstanceError):
    """A cost polynomial has more coefficients than the game degree allows."""


class DigitLimitError(CongamesError):
    """An integer has more digits than the interpreter converts to or from
    a string (4,300 by default)."""


class AlreadyZeroError(CongamesError):
    """Every player has cost zero at the initial state; nothing to improve."""


class ZeroMinCostError(CongamesError):
    """Some player's cheapest strategy costs zero even on empty resources,
    so the phase count of the schedule is undefined."""


class MoveBudgetExceededError(CongamesError):
    """A phase exceeded its theoretical move budget; indicates a bug."""


class StateSpaceTooLargeError(CongamesError):
    """Exhaustive enumeration was requested on a game above the state cap."""


class NoEquilibriumError(CongamesError):
    """The game has no approximate equilibrium at the requested factor."""


class TraceMismatchError(CongamesError):
    """A trace's recorded values disagree with exact recomputation."""


class MalformedTraceError(CongamesError):
    """A trace file is structurally broken: a missing key or a field of
    the wrong type, as opposed to values that disagree with recomputation."""
