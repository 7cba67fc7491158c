"""Exception types shared across the simulator."""


class CamError(Exception):
    """Base class for every error raised by this package."""


class InvalidConfig(CamError):
    """Array geometry or model parameters violate their constraints."""


class WidthMismatch(CamError):
    """A bit vector's decoded length does not match the expected width."""


class BadDigit(CamError):
    """A character outside the binary/hex alphabet."""


class PrefixTooShort(CamError):
    """The energizer stage needs at least two prefix bits."""


class ZeroSearches(CamError):
    """The energy metric needs at least one search in the denominator."""


class EmptyStore(CamError):
    """Workload generation needs stored words but none were given."""
