"""Exception types shared across the package."""


class HexchanError(Exception):
    """Base class for all hexchan errors."""


class NotInLatticeError(HexchanError):
    """A cell index was used with a lattice that does not contain it."""


class InvalidDomainTableError(HexchanError):
    """A regulatory channel table cannot support the requested plan."""


class CapacityError(HexchanError):
    """Not enough channels to form the requested groups."""


class InsufficientSpectrumError(HexchanError):
    """The channel plan has fewer channels than an allocation needs."""


class SizeLimitError(HexchanError):
    """An exact coloring search ran past its work budget on a graph that
    the control pattern does not color properly."""


class InvalidSuperframeError(HexchanError):
    """A superframe configuration violates SO <= BO or basic bounds."""


class OrderingError(HexchanError):
    """A comparison was requested with baseline and improved swapped."""


class ConfigError(HexchanError):
    """A scenario config failed validation.

    ``field`` names the offending config entry when known.
    """

    def __init__(self, message, field=None):
        self.field = field
        if field:
            message = f"{field}: {message}"
        super().__init__(message)
