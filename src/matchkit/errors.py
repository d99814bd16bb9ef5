"""Exception types shared across the package."""


class MatchkitError(Exception):
    """Base class for all matchkit-specific errors."""


class InvalidMarketError(MatchkitError):
    """A market failed structural validation; message lists the violations."""


class MarketFormatError(MatchkitError):
    """An input file could not be parsed into a market/matching/roadmap."""


class SizeGuardExceeded(MatchkitError):
    """Instance exceeds the fixed size guard of the exhaustive routines."""


class WorkBudgetExceeded(MatchkitError):
    """A bounded search ran out of its work budget (not a verdict)."""


class CertificateError(MatchkitError):
    """A computed result failed its own certificate: an internal fault, never
    a verdict about the input."""
