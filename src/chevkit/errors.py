"""Exception types shared across the package."""


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
