"""Exception types shared across the package."""


class CamphError(Exception):
    """Base class for every library error."""


class CompositeModulus(CamphError, ValueError):
    """Requested coefficient modulus is not a prime number."""


class ClosureViolation(CamphError, ValueError):
    """A stored simplex is missing one of its faces."""


class MonotonicityViolation(CamphError, ValueError):
    """A face carries a larger filtration value than one of its cofaces."""


class UnknownSimplex(CamphError, KeyError):
    """Query about a simplex that is not part of the complex."""


class MissingFace(CamphError, KeyError):
    """A simplex reached the engine before one of its faces."""


class SlotAlreadyAssigned(CamphError, ValueError):
    """The slot already carries an annotation."""


class UnassignedSlot(CamphError, KeyError):
    """Annotation lookup for a slot that was never assigned."""


class ZeroAnnotation(CamphError, ValueError):
    """Destruction requested with the zero annotation vector."""


class DimensionMismatch(CamphError, ValueError):
    """Points of one cloud do not share a single ambient dimension."""


class ParseError(CamphError, ValueError):
    """Malformed input file; carries the offending location."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = "" if path is None else str(path)
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}" if where else message)


class InvariantViolation(CamphError):
    """An internal data-structure invariant failed; indicates a bug."""
