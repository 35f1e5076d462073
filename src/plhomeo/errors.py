"""Exception types shared across the package.

Every error carries a CLI exit code: 3 for ParseError (malformed input,
including a certificate that names an invalid model class), 4 for
NotPeriodic, and 2 for every other error, each a structural violation
found in the input or in a construction.  The verdict on a certificate
is a return value, not an exception; a builder whose own conjugacy fails
its exact check raises StructureViolated.
"""


class PLHomeoError(Exception):
    exit_code = 2


class DegenerateInput(PLHomeoError):
    """A polygon is non-simple, has zero area, or is otherwise unusable."""


class OverlayDegenerate(PLHomeoError):
    """A refinement produced an inconsistent or zero-area cell."""


class NotPeriodic(PLHomeoError):
    """The map is not periodic, or has no period up to the bound searched."""
    exit_code = 4


class OrientationReversing(PLHomeoError):
    """Operation defined only for orientation-preserving maps."""


class StructureViolated(PLHomeoError):
    """A structural guarantee of the theory fails on this input."""


class QuotientPathNotFound(PLHomeoError):
    """A quotient path that does not lift or does not join the arc lines
    (``sectors.lifted_quotient_path``, ``polar_arc``), or an arc orbit that
    cuts the wrong number of sectors (``cut_sectors``).  Nothing catches
    it: the command exits 2."""


class EmbeddingDegenerate(PLHomeoError):
    """The convex-combination linear system was singular."""


class ArcSearchFailed(PLHomeoError):
    """No admissible polar arc found after the allowed refinements."""


class InvalidClass(PLHomeoError):
    """Requested model isometry parameters are invalid."""


class ParseError(PLHomeoError):
    exit_code = 3
