"""Exception types shared across the package."""


class CrossIntError(Exception):
    """Base class for domain errors raised by this package."""


class BracketingError(CrossIntError):
    """A root solver was called without a sign-bracketing interval."""


class CapacityError(CrossIntError):
    """The requested computation exceeds a hard enumeration budget."""


class InvalidTruncationError(CrossIntError):
    """The requested truncation point does not exist for this cascade form."""


class NotFoundError(CrossIntError):
    """A bounded scan terminated without locating the requested index."""
