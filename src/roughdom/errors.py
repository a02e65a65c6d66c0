"""Exception types shared across the library.

Constructor-level problems (malformed structures) and operation-level
problems (violated preconditions) get distinct classes so callers can
map them to different exit codes.
"""


class RoughdomError(Exception):
    """Base class for every error raised by this library."""


# --- malformed structures -------------------------------------------------

class InvalidPoset(RoughdomError):
    """The given relation is not a partial order on the given carrier."""


class InvalidMap(RoughdomError):
    """A map graph is not total or not between the stated posets."""


class NotMonotone(InvalidMap):
    """A map graph violates order preservation."""


class InvalidSpace(RoughdomError):
    """An approximation space violates a structural invariant."""


class InvalidRelation(RoughdomError):
    """Relation pairs fall outside the declared families."""


# --- operation preconditions ----------------------------------------------

class ElementNotInPoset(RoughdomError):
    pass


class ElementNotInUniverse(RoughdomError):
    pass


class PreconditionViolated(RoughdomError):
    pass


class EmptyPoset(RoughdomError):
    pass


class EmptyFamily(RoughdomError):
    pass


class NotACover(RoughdomError):
    pass


class NotDirected(RoughdomError):
    pass


class SpaceNotValidated(RoughdomError):
    """A closed-set level operation was called before validation."""


class NotClosed(RoughdomError):
    pass


class SpaceMismatch(RoughdomError):
    """Two structures that must share a space do not."""


class RelationNotValidated(RoughdomError):
    pass


class NotTopological(RoughdomError):
    pass


class TBViolated(RoughdomError):
    """A selector was used without passing its admissibility check."""


class WitnessInvalid(RoughdomError):
    pass


class NoCoveringIndex(RoughdomError):
    """No family member covers the requested finite set (signals a bug)."""


class IsoCheckFailed(RoughdomError):
    """A construction that must produce an isomorphism did not."""


class PostconditionFailed(RoughdomError):
    """An internal guarantee did not hold; indicates an implementation bug."""


class SizeCapExceeded(RoughdomError):
    """An exhaustive search was requested above the configured cap."""


# --- CLI / document handling ----------------------------------------------

class UnknownTheorem(RoughdomError):
    pass


class ArityMismatch(RoughdomError):
    pass


class IOFailure(RoughdomError):
    pass


class ParseFailure(RoughdomError):
    pass
