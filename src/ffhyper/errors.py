"""Exception types shared across the package."""


class FFHyperError(Exception):
    """Base class for all package-specific errors."""


class NotPrime(FFHyperError, ValueError):
    """Field modulus is composite."""


class NotOdd(FFHyperError, ValueError):
    """Field modulus is 2; only odd primes are supported."""


class DivisionByZero(FFHyperError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class SingularParameter(FFHyperError, ValueError):
    """Curve parameter at which the family degenerates."""


class RejectedInput(FFHyperError, ValueError):
    """Argument outside an identity's stated hypotheses."""


class Infeasible(FFHyperError, RuntimeError):
    """Requested computation exceeds the configured work budget."""


class NotRational(FFHyperError, ArithmeticError):
    """A value expected to be an integer over q**n failed reconstruction.

    ``residual`` carries the offending distance (imaginary part or distance
    to the nearest integer after scaling) so callers can tell accumulated
    floating error apart from a genuinely wrong identity.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual
