"""Exception types shared across the package.

Every error carries a CLI exit code: 2 for structural violations, 3 for
parse errors, and 4 only for NotPeriodic (no period up to the bound).
Verification failures are reported through return values, not
exceptions, except where noted.
"""


class PLHomeoError(Exception):
    exit_code = 2


class DegenerateInput(PLHomeoError):
    """A polygon is non-simple, has zero area, or is otherwise unusable."""


class OverlayDegenerate(PLHomeoError):
    """A refinement produced an inconsistent or zero-area cell."""


class NotPeriodic(PLHomeoError):
    """No iterate up to the allowed bound is the identity."""
    exit_code = 4


class PeriodicityViolated(PLHomeoError):
    """Input declared periodic contradicts a forced structure."""


class OrientationReversing(PLHomeoError):
    """Operation defined only for orientation-preserving maps."""


class StructureViolated(PLHomeoError):
    """A structural guarantee of the theory fails on this input."""


class QuotientPathNotFound(PLHomeoError):
    """Quotient-graph search found no admissible arc; refine and retry."""


class EmbeddingDegenerate(PLHomeoError):
    """The convex-combination linear system was singular."""


class GluingMismatch(PLHomeoError):
    """Sector boundary values disagree; internal error."""


class ArcSearchFailed(PLHomeoError):
    """No admissible polar arc found after the allowed refinements."""


class InvalidClass(PLHomeoError):
    """Requested model isometry parameters are invalid."""


class ParseError(PLHomeoError):
    exit_code = 3
