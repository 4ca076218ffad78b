"""Exception hierarchy.

Input problems (bad flags, violated preconditions) exit the CLI with
status 2; invariant violations, which signal a library bug or data that is
arithmetically inconsistent, exit with status 3.  The CLI catches these
two classes and nothing else, so any other exception is a bug.
"""


class RamforgeError(Exception):
    """Base class for all library errors."""


class InputError(RamforgeError, ValueError):
    """A caller-supplied value violates a documented precondition."""


class ParseError(InputError):
    """Text input does not match the expected grammar."""


class FieldMismatch(InputError):
    """Operands belong to different coefficient fields."""


class InvalidJump(InputError):
    """A jump or conductor candidate is divisible by p (or not positive)."""


class NotLarger(InputError):
    """A deformation target does not exceed the current conductor."""


class ZeroParameter(InputError):
    """The deformation parameter is zero, which would be a no-op."""


class SplitInput(InputError):
    """An operation requiring ramified input received a split cover."""


class DegenerateTower(InputError):
    """The second tower layer is unramified or its jump falls below the first."""


class NotATower(InputError):
    """Jump data is inconsistent with a cyclic p-squared filtration."""


class LengthMismatch(InputError):
    """Sequences being compared have different lengths."""


class NotComparable(InputError):
    """Sequences are not strictly comparable in the componentwise order."""


class NotAdmissible(InputError):
    """A jump sequence fails the admissibility condition."""


class CongruenceViolation(InputError):
    """A conductor candidate is in the wrong residue class mod m."""


class InvalidSubgroup(InputError):
    """The requested subgroup order does not fit inside the top break."""


class InconsistentInput(InputError):
    """Numeric input that cannot come from any actual cover."""


class InvariantViolation(RamforgeError):
    """An internal invariant failed; indicates a bug or inconsistent data."""
