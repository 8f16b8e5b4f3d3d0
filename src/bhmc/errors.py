"""Exception hierarchy shared by all bhmc modules."""


class BhmcError(Exception):
    """Base class for every error raised by this library."""


class InvalidBlock(BhmcError):
    """A generator block violates Q-matrix sign, shape, or finiteness rules."""


class BadDistribution(BhmcError):
    """A probability vector is mis-sized, has a negative entry, or does not sum to one.

    A fixed direction must also be strictly positive.
    """


class UnstableModel(BhmcError):
    """Model parameters violate the documented stability condition."""


class BadRates(BhmcError):
    """A transition rate parameter is not strictly positive."""


class SingularBlock(BhmcError):
    """The arithmetic of a solve broke down, at the level or matrix named.

    An LU factorization hit a pivot below the singularity threshold or a
    zero or non-finite matrix; ``u_star`` overflowed or lost positivity; a
    residual is undefined or underflowed; an occupancy ratio is not
    finite or a drift objective is NaN or negative; or a baseline's answer
    failed its backward error or sign check.
    """


class IndexOutOfRange(BhmcError, IndexError):
    """A level or phase index lies outside the currently available range."""


class EmptyCandidateSet(BhmcError):
    """Pivot selection found no usable phase; chain may not be ergodic."""


class UnsupportedInfiniteBand(BhmcError):
    """Operation requires a finite upper bandwidth."""


class PhaseMismatch(BhmcError):
    """A fixed direction, seed or drift vector does not fit its level's phases."""


class NotQbd(BhmcError):
    """Operation requires a block-tridiagonal (bandwidth 1) generator."""


class NonpositiveWeight(BhmcError, ValueError):
    """A drift weight vector has a non-numeric, nonpositive or non-finite entry."""


class ConfigError(BhmcError):
    """A run configuration or solver option is malformed."""
