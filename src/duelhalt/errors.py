"""Exception taxonomy shared by every module."""


class DuelhaltError(Exception):
    """Base class for all package errors."""


class UnknownCard(DuelhaltError):
    """Card name not in the construction set."""


class DeckParseError(DuelhaltError):
    """Deck-list text violated the format or the deck invariants."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IllegalDeck(DuelhaltError):
    """Deck fails the construction-legality invariants."""


class IllegalMove(DuelhaltError):
    """Move is not legal in the given configuration."""


class MalformedCode(DuelhaltError):
    """Integer code does not decode to a valid object."""


class ScriptBroken(DuelhaltError):
    """A scripted step failed transition validation (engine/effect bug)."""

    def __init__(self, step, reason):
        super().__init__(f"script broken at step {step}: {reason}")


class NotLoopReady(DuelhaltError):
    """Configuration is not in the counter-loop-ready board shape."""


class InsufficientCounters(DuelhaltError):
    """Decrement cycle needs at least 6 spell counters."""


class ZeroTarget(DuelhaltError):
    """Counter value 0 is reserved and unreachable by design."""


class BadIndex(DuelhaltError):
    """An index, value or search parameter outside its domain."""


class InvalidOrder(DuelhaltError):
    """Order descriptor fails the linear-order invariants."""


class StrategyUndefinedAtRoot(DuelhaltError):
    """check_winning was handed a run the strategy is not defined on."""


class TMParseError(DuelhaltError):
    """Turing machine program text failed to parse."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
