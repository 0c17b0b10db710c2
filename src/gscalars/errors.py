"""Exception hierarchy shared by all gscalars modules.

Every error carries a stable name (its class name) that the CLI prints on
its diagnostic lines, so scripts can match on `error: <Name>`.
"""


class Error(Exception):
    """Base class for all gscalars errors."""

    @property
    def name(self) -> str:
        return type(self).__name__


class ZeroPolynomial(Error):
    """Root extraction was asked for the zero polynomial."""


class ZeroDenominator(Error):
    """A rational function was built with a zero denominator polynomial."""


class MissingException(Error):
    """A sequence branch denominator vanishes at an index that was not
    declared as an exception."""


class NotConvergent(Error):
    """limit() was called on a sequence that does not converge."""


class UnboundedSequence(Error):
    """sup/inf was called on an unbounded sequence."""


class NonPolynomialTerms(Error):
    """Partial sums require every branch to be a polynomial."""


class InvalidFilter(Error):
    """A filter was built over a base that would put the empty set in it:
    an empty principal base or a finite cofinite one."""


class FilterMismatch(Error):
    """Two scalars from different quotient algebras were combined."""


class ZeroScalar(Error):
    """Inversion of the zero class."""


class ZeroDivisor(Error):
    """Inversion of a nonzero class that annihilates another nonzero class.

    `witness` is a Scalar b with a*b = 0 and b != 0.
    """

    def __init__(self, witness):
        super().__init__("zero divisor")
        self.witness = witness


class NotStandardizable(Error):
    """The scalar is not infinitesimally close to any embedded rational."""


class TypeMismatch(Error):
    """An expression combined values of incompatible result kinds."""


class InvalidArgument(Error):
    """An argument (a number, a filter flag, GSC_SEED) is malformed or
    outside the range the operation accepts."""


class ConfigTooLarge(Error):
    """A finite-enumeration configuration is outside the supported bounds."""


class NestingTooDeep(Error):
    """An expression nests deeper than `expr.MAX_DEPTH` levels."""


class ModulusTooLarge(Error):
    """A set or a sequence would need a modulus, or an lcm of moduli, above
    `sets_filters.MAX_MODULUS`."""


class TooManyOverrides(Error):
    """A sequence would hold more than `seqrep.MAX_OVERRIDES` overrides."""


class NumberTooLarge(Error):
    """A result holds an integer with more digits than the interpreter
    converts to text (`sys.get_int_max_str_digits()`)."""
