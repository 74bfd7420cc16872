"""Exception types shared across the package, and the one check that
refuses an order, degree or count it cannot use."""


class ChevkitError(Exception):
    """Base class for all package errors."""


class InputError(ChevkitError, ValueError):
    """Malformed or inconsistent input (bad arity, bad text, bad scenario)."""


class WedgeCapError(ChevkitError):
    """A wedge-power target would exceed the configured entry cap."""


class RelationsMismatchError(ChevkitError):
    """Supplied relation generators disagree with a stabilized subspace.

    Either the generators do not generate the full relation ideal or the
    stabilization window reported a false positive.  One of the inputs is
    wrong, so this is a hard error rather than a status.
    """


class ConsistencyError(ChevkitError):
    """Two certified computation routes disagree."""


def check_int(value, what, low=0, high=None):
    """Refuse an order, degree or count that is not an int in low..high
    (no lower end when low is None, no upper end when high is None): a
    bool, float or str is refused, as True would run as 1 and 2.0 fails
    later as an index."""
    if type(value) is not int or (low is not None and value < low) or (
            high is not None and value > high):
        span = ("" if low is None else f" >= {low}" if high is None
                else f" in {low}..{high}")
        raise InputError(f"{what} must be an int{span}, got {value!r}")
