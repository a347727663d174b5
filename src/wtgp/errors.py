"""Exception types shared across the package.

Argument misuse raises plain ValueError; the classes here carry a stable
``code`` used by the CLI to emit machine-readable error JSON with a
distinct exit status per failure class.
"""

from __future__ import annotations


class WtgpError(Exception):
    code = "error"
    exit_status = 1


class ShapeError(WtgpError):
    """Axis names or sizes of probability objects do not line up."""

    code = "shape"
    exit_status = 2


class ResourceError(WtgpError):
    """An enumeration or table would exceed the configured budget."""

    code = "resource"
    exit_status = 3


class ClassificationError(WtgpError):
    """A model does not satisfy the structural class a family requires."""

    code = "classification"
    exit_status = 4


class ChannelFormatError(WtgpError):
    """Malformed channel, experiment, or parameter file."""

    code = "channel-format"
    exit_status = 5


class RowSumError(ChannelFormatError):
    code = "row-sum"
    exit_status = 6


class AlphabetMismatchError(ChannelFormatError):
    code = "alphabet-mismatch"
    exit_status = 7


class NumericalError(WtgpError):
    """An exact identity or sign guard failed beyond its rounding tolerance."""

    code = "numerical"
    exit_status = 8
