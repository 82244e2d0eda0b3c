"""Exception hierarchy shared across the toolkit, and the scalar rules.

Two branches matter to callers: ``UserError`` covers bad input data or
configuration (the CLI maps it to exit code 2), ``InternalError`` covers
violated internal invariants (exit code 3).

Every scalar a constructor or a configured call checks follows one of
these rules, stated here once:

* ``is_integer``: an int or numpy integer, never a bool;
* ``is_number``: a real number (an int, a float or a numpy number of
  either kind), never a bool;
* ``check_integer``: such an integer, at least a given bound and at most
  another;
* ``check_number``: a real number that is not a bool, finite, in a closed
  or half-open interval;
* ``check_pair``: a pair of values that each pass ``check_number`` (a
  canvas or scene's width and height);
* ``check_kind``: a container or record of the kind an entry point reads
  (a mapping of frames, a ``GroundTruth``, a ``FrameResult``).

So a configuration value of the wrong type (a string, None, a bool, 1.5
where a count belongs, a list where a mapping belongs) raises the caller's
``UserError`` subclass naming the value when the object is built, never a
``TypeError`` partway through a run.
"""

import math
import numbers
import sys

# Comparing |value| with the largest finite float rejects NaN, the
# infinities and the ints too large to become a float, in one test.
_FLOAT_MAX = sys.float_info.max


class TrackingError(Exception):
    """Base class for every error raised by this package."""


class UserError(TrackingError):
    """Invalid input data, configuration, or call sequence."""


class InternalError(TrackingError):
    """An internal invariant was violated; indicates a bug, not bad input."""


class DimensionError(UserError):
    """Cost matrix has an empty row or column dimension."""


class SizeError(UserError):
    """Problem exceeds the exhaustive-enumeration cap."""


class ParamError(UserError):
    """Model or tracker parameter outside its valid range."""


class NumericalError(UserError):
    """A matrix operation could not be carried out safely."""


class OrderError(UserError):
    """Frames were presented out of order."""


class SpecError(UserError):
    """Invalid synthetic-scenario specification."""


class AlignmentError(UserError):
    """Tracker output and ground truth cover incompatible frames."""


class ParseError(UserError):
    """Malformed text input, located by line number.

    Attributes:
        line: 1-based line number of the offending line, or None when the
            problem is not tied to a single line.
        path: source file path, filled in by the CLI layer.
    """

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.path = path

    def __str__(self) -> str:
        prefix = ""
        if self.path is not None:
            prefix += f"{self.path}:"
        if self.line is not None:
            prefix += f"line {self.line}: "
        elif prefix:
            prefix += " "
        return prefix + self.message


def is_integer(value: object) -> bool:
    """An int or numpy integer, which prints as digits; a bool prints as a word."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value: object) -> bool:
    """A real number that is not a bool: an int, a float or a numpy number of either kind."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_integer(
    error: type[UserError], name: str, value: object, low: float = -math.inf, high: float = math.inf
) -> int:
    """`value` as an int when it is an integer (`is_integer`) in [low, high]; else raise `error`.

    The message names `name` and the value: ``name must be an integer in
    [low, high], got value``, or ``>= low`` in place of the range when
    `high` is inf, and without a bound when both are infinite.
    """
    if is_integer(value) and low <= value <= high:  # type: ignore[operator]
        return int(value)  # type: ignore[call-overload]
    bound = f" in [{low}, {high}]" if high < math.inf else f" >= {low}" if low > -math.inf else ""
    raise error(f"{name} must be an integer{bound}, got {value!r}")


def check_number(
    error: type[UserError], name: str, value: object, low: float, high: float = math.inf,
    *, above: bool = False,
) -> float:
    """`value` as a float when it is a finite real number, not a bool, in range; else raise `error`.

    The range is [low, high], or (low, high] with `above`; an infinite
    `high` only asks for a finite value. `low` is 0 unless the range is
    closed and bounded, or -inf to ask for any finite value. The message
    names `name` and the value, in one of these shapes:

    * (0, high]: ``name must be positive and at most high, got value``;
    * [low, high]: ``name must lie in [low, high], got value``;
    * (0, inf): ``name must be finite and positive, got value``;
    * [0, inf): ``name must be finite and nonnegative, got value``;
    * (-inf, inf): ``name must be finite, got value``.

    A float is tested first: this runs once per newborn track in
    `kfilter.init_state`, and the ABC test costs several times more.
    """
    if type(value) is float or is_number(value):
        if (low < value <= high if above else low <= value <= high) and abs(value) <= _FLOAT_MAX:
            return float(value)
    if high < math.inf:
        rule = f"be positive and at most {high:g}" if above else f"lie in [{low:g}, {high:g}]"
    else:
        rule = "be finite" + (" and positive" if above else " and nonnegative" if low == 0 else "")
    raise error(f"{name} must {rule}, got {value!r}")


def check_pair(
    error: type[UserError], name: str, value: object, low: float, high: float = math.inf,
    *, above: bool = False,
) -> tuple[float, float]:
    """`value` as a pair of floats, each checked by `check_number`; else raise `error`.

    A value that does not unpack into exactly two items raises ``name must
    be a pair of numbers, got value``; a side out of range raises
    `check_number`'s message for `name`, the first side first.
    """
    try:
        first, second = value  # type: ignore[misc]
    except (TypeError, ValueError):
        raise error(f"{name} must be a pair of numbers, got {value!r}") from None
    return (
        check_number(error, name, first, low, high, above=above),
        check_number(error, name, second, low, high, above=above),
    )


def check_kind(error: type[UserError], name: str, value: object, kind: type) -> None:
    """Raise `error` unless `value` is an instance of `kind`.

    The message names `name`, the kind and the value's type: ``name must be
    a Kind, got type``.
    """
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise error(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")
