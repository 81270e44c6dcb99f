"""Exception types shared across the library."""


class DiffglueError(Exception):
    """Base class for all library errors."""


class ValidationError(DiffglueError):
    """An object failed its construction invariants."""


class ParseError(DiffglueError):
    """A scenario document could not be parsed; carries location context."""


class LocusOutsideBlock(ValidationError):
    """Gluing locus data escapes the domain of the block it must live in."""


class NotADiffeomorphism(ValidationError):
    """Gluing map failed a round-trip or Jacobian invertibility probe."""


class HypothesisNotAsserted(DiffglueError):
    """A glued space was constructed without the standing hypotheses asserted."""


class OutsideDomain(DiffglueError):
    """Coordinates fall outside the relevant block domain."""


class DimensionMismatch(DiffglueError):
    """Objects with incompatible dimensions were combined."""


class IncompatiblePair(DiffglueError):
    """A block-value pair escapes the compatible subspace over a locus point."""


class IncompatibleSections(DiffglueError):
    """Two block sections do not assemble into a glued section."""


class NotAFunctionOnGluedSpace(DiffglueError):
    """A pair of block functions disagrees on the gluing locus."""


class IncompatibleMetrics(DiffglueError):
    """Block pseudo-metrics fail the locus compatibility rule."""


class IncompatibleConnections(DiffglueError):
    """Block connections fail the locus pullback compatibility rule."""


class SingularGram(DiffglueError):
    """A Gram matrix that must be invertible is numerically singular."""


class ModesDisagree(DiffglueError):
    """Dual-number and finite-difference derivatives disagree beyond tolerance."""


class RankAmbiguous(DiffglueError):
    """A rank decision fell inside the singular-value cutoff band."""
