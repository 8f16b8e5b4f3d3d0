"""Exception hierarchy shared by all bhmc modules."""


class BhmcError(Exception):
    """Base class for every error raised by this library."""


class InvalidBlock(BhmcError):
    """A generator block violates Q-matrix sign, shape, or finiteness rules."""


class MissingTailInfo(BhmcError):
    """Row sums cannot be checked: no bandwidth and no tail-mass callback."""


class BadDistribution(BhmcError):
    """A probability vector is negative, mis-sized, or does not sum to one."""


class UnstableModel(BhmcError):
    """Model parameters violate the documented stability condition."""


class BadRates(BhmcError):
    """A transition rate parameter is not strictly positive."""


class SingularBlock(BhmcError):
    """An LU factorization hit a pivot below the singularity threshold."""


class IndexOutOfRange(BhmcError, IndexError):
    """A level or phase index lies outside the currently available range."""


class EmptyCandidateSet(BhmcError):
    """Pivot selection found no usable phase; chain may not be ergodic."""


class UnsupportedInfiniteBand(BhmcError):
    """Operation requires a finite upper bandwidth."""


class PhaseMismatch(BhmcError):
    """A fixed direction vector does not match the phase layout."""


class NotQbd(BhmcError):
    """Operation requires a block-tridiagonal (bandwidth 1) generator."""


class NonpositiveWeight(BhmcError, ValueError):
    """A drift weight vector has a nonpositive or non-finite entry."""


class ConfigError(BhmcError):
    """A run configuration or solver option is malformed."""
