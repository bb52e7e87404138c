"""Exception types shared across the package.

Every named failure mode raised by the library lives here so callers can
catch one base class (:class:`QlrcError`) or the precise condition.
"""


class QlrcError(Exception):
    """Base class for all library errors."""


# --- field construction / arithmetic ---

class NonPrimeP(QlrcError):
    """Field characteristic is not a prime number."""


class ReduciblePolynomial(QlrcError):
    """Supplied modulus is not monic/irreducible of the right degree."""


class UnsupportedSize(QlrcError):
    """No built-in modulus for this field size and none was supplied."""


class DivisionByZero(QlrcError):
    """Division by the zero element."""


class NotAQuadraticExtension(QlrcError):
    """Hermitian machinery needs a field of even extension degree."""


# --- matrices / codes ---

class DimensionMismatch(QlrcError):
    """Incompatible shapes or lengths."""


class EmptyIndexSet(QlrcError):
    """Operation requires a nonempty coordinate set."""


class ZeroCode(QlrcError):
    """Distance/weight of the zero code is undefined here."""


class BudgetExceeded(QlrcError):
    """Exhaustive enumeration would exceed the configured work budget."""


# --- locality / verification ---

class BadParameters(QlrcError):
    """Locality parameters out of range (needs r >= 1, delta >= 2, ...)."""


class IndexInR(QlrcError):
    """Recovery-set check requires the target index outside the set."""


class IndexNotInJ(QlrcError):
    """The certified set must contain the coordinate it covers."""


class NotSelfOrthogonal(QlrcError):
    """Carrier code is not self-orthogonal under the requested form."""


class NotNested(QlrcError):
    """CSS pair does not satisfy the required containment."""


class BadNesting(QlrcError):
    """Index sets violate the required chain (nonempty I strictly inside J)."""


class FormMismatch(QlrcError):
    """Inner-product form does not match the carrier type."""


class HypothesisNotMet(QlrcError):
    """A criterion's standing hypothesis fails, so it does not apply."""


class ParityViolation(QlrcError):
    """n + k must be even for this bound."""


class TOutOfRange(QlrcError):
    """Weight-hierarchy index outside 1..dim."""


# --- constructions ---

class BadGrid(QlrcError):
    """Grid sides must satisfy (n_i - 1) | (q - 1) with distinct roots."""


class EmptyDelta(QlrcError):
    """Exponent set must be nonempty."""


class ConstraintViolated(QlrcError):
    """A family's parameter constraint fails; message names the constraint."""


class RepeatedPoints(QlrcError):
    """Evaluation points must be pairwise distinct."""


class ZeroMultiplier(QlrcError):
    """Column multipliers must be nonzero."""


# --- oracle ---

class SyndromeLengthMismatch(QlrcError):
    """Syndrome length must equal the stabilizer dimension."""


# --- cli / files ---

class ParseError(QlrcError):
    """Descriptor or file contents could not be parsed."""


class IoError(QlrcError):
    """File could not be read or written."""


class DependentMonomialsWarning(UserWarning):
    """Evaluation vectors of a custom exponent set were linearly dependent."""
