"""Exception types and enumeration limits shared across the package.

The limits live here, beside the errors they raise, so that the command
line builds them without importing ``coset`` or ``nu``.
"""

from dataclasses import dataclass

# the default cap on |G| for the nu-construction (``tensq.nu.build_nu``
# and the command line's ``--max-group``)
DEFAULT_GROUP_CAP = 16


@dataclass(frozen=True)
class EnumerationLimits:
    """Caps on one coset enumeration: cosets defined and seconds."""
    max_cosets: int = 2_000_000
    time_limit: float = 60.0


class CapacityError(RuntimeError):
    """An enumeration would exceed its configured element cap."""


class AmbientMismatchError(ValueError):
    """Two elements do not live in the same ambient group (degree mismatch)."""


class EnumerationLimitError(RuntimeError):
    """Coset enumeration hit its coset, time or table memory limit.

    The partial table is preserved on the ``table`` attribute for diagnostics.
    """

    def __init__(self, message, table=None):
        super().__init__(message)
        self.table = table


class StateError(RuntimeError):
    """An operation was applied to an object in the wrong state
    (e.g. reading permutations off a table that is not closed)."""


class InvariantError(RuntimeError):
    """A theorem-level invariant of a computed structure failed; this
    means a bug or an inconsistent enumeration, never bad input."""


def invariant(ok, message):
    """Raise InvariantError with ``message`` unless ``ok``; unlike
    ``assert``, this survives ``python -O``."""
    if not ok:
        raise InvariantError(message)
