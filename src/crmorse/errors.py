"""Exception hierarchy shared by all crmorse modules, and the argument
checks behind every InputError about a value the caller set.

Exit-code contract used by the CLI: InputError maps to 2,
DegeneratePencilError (and subclasses) to 3, CalibrationError to 4.

Each check takes the value, the name its message reports (a parameter,
or the flag that set it) and plain bounds, and returns the value as an
int or a float.  A bool is neither an integer nor a real here, and a
string is not a real, as in the document parsers.  The messages read

    <name> must be an integer [>= lo | in lo..hi], got <value>
    <name> must be a positive real [<= hi], got <value>
    <name> must be a finite real, got <value>

where an int beyond float range, a value or a bound, shows as "an
integer of N digits", and _float_range raises the caller's own message.
_float_integer, the integer rule of the exact specs, names its value in
the document parsers' form, "<name>: ...", as the entry of a matrix or
vector it checks.
_fsum sums reported totals, leaving a total out of range for those checks
to refuse.
"""

import math
import numbers


class CRMorseError(Exception):
    """Base class for all crmorse errors."""


class InputError(CRMorseError, ValueError):
    """Invalid user input: bad document, bad dimension, violated precondition."""


class DegeneratePencilError(CRMorseError):
    """det(R + 2sL) vanishes identically on the requested interval.

    Every signature set is then empty in a structurally different way than
    for a nondegenerate pencil, so this is a hard error rather than a
    silent zero.
    """


class ChamberBoundaryError(DegeneratePencilError):
    """An eta quadrature node landed on a chamber boundary (eigenvalue at zero)."""


class ZeroExtremalMassError(InputError):
    """The requested q-chamber set is empty, so no extremal form exists."""


class CalibrationError(CRMorseError):
    """Lattice calibration record is missing, inconsistent, or irreproducible."""


def _int_arg(value, name: str, lo=None, hi=None) -> int:
    """``value`` as an int, once it is an integer with lo <= value <= hi;
    a bound of None is open, and an upper bound comes with a lower one."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or (lo is not None and value < lo)
        or (hi is not None and value > hi)
    ):
        if hi is not None:
            span = " in %s..%s" % (_shown(lo), _shown(hi))
        else:
            span = "" if lo is None else " >= %s" % _shown(lo)
        raise InputError("%s must be an integer%s, got %s" % (name, span, _shown(value)))
    return int(value)


def _shown(value) -> str:
    """repr(value) for a message; an int beyond float range as 'an integer
    of N digits', as the document parsers show one, since str() refuses an
    int of more than 4300 digits."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        try:
            float(value)
        except OverflowError:
            return "an integer of %d digits" % _digits(value)
    return repr(value)


def _as_float(value) -> float:
    """float(value) for a real number other than a bool; nan for any other
    value, a string that float() reads included, and for an int beyond
    float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.nan


def _positive_arg(value, name: str, hi: float = math.inf) -> float:
    """``value`` as a float, once it is a finite real with 0 < value <= hi."""
    v = _as_float(value)
    if not (0.0 < v <= hi and math.isfinite(v)):
        span = "" if hi == math.inf else " <= %g" % hi
        raise InputError("%s must be a positive real%s, got %s" % (name, span, _shown(value)))
    return v


def _real_arg(value, name: str) -> float:
    """``value`` as a float, once it is a finite real."""
    v = _as_float(value)
    if not math.isfinite(v):
        raise InputError("%s must be a finite real, got %s" % (name, _shown(value)))
    return v


def _float_integer(value, name: str) -> float:
    """The float of ``value``, once it is an integer that the float holds
    exactly: an integer equal to its float, or a float with an integral
    value.  Checked on the value the caller gave, before any conversion
    that rounds, so 2^53 + 1 is refused and 2^53 or 3.0 is not."""
    v = _as_float(value)  # nan for a bool, a non-real, an int beyond float range
    exact = int(value) if isinstance(value, numbers.Integral) else value  # numpy ints compare as floats
    if not (v.is_integer() and v == exact):
        raise InputError("%s: expected an integer that a float holds exactly, got %s" % (name, _shown(value)))
    return v


def _digits(k: int) -> int:
    """The number of decimal digits of |k|, counted without str(k), which
    refuses an int of more than 4300 digits."""
    k = abs(k)
    n = max(1, int(k.bit_length() * 0.30102999566398120))  # log10(2): never above the count
    while k >= 10**n:
        n += 1
    return n


def _float_range(compute, message: str):
    """What ``compute()`` gives, a float or a list of floats, once every
    number is finite.  A number out of floating-point range, or an
    OverflowError on the way (an integer too large to meet a float, a float
    power beyond range), is an InputError with ``message``, which names the
    input that scaled it there."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not all(map(math.isfinite, value if isinstance(value, list) else [value])):
        raise InputError(message)
    return value


def _fsum(values) -> float:
    """The exactly rounded sum of ``values``, the one summation rule of
    every reported total.  It is +-inf only where the exact total leaves
    floating-point range, and nan for inf - inf, instead of an exception,
    for the caller's range check."""
    values = list(values)
    try:
        return math.fsum(values)
    except OverflowError:  # a partial sum left float range: sum exactly
        if not all(map(math.isfinite, values)):  # the infinities decide the total
            return sum(v for v in values if not math.isfinite(v))
        from fractions import Fraction  # here, so that no command imports it at start-up

        total = sum(map(Fraction, values))
        try:
            return float(total)  # int / int, rounded once
        except OverflowError:
            return math.inf if total > 0 else -math.inf
    except ValueError:  # inf - inf
        return math.nan
