"""Exception types shared across the package.

Everything raised on bad input derives from DomainError so callers (and the
command line front end) can catch contract violations without also swallowing
genuine bugs.
"""


class DomainError(Exception):
    """Base class for violations of an operation's input contract."""


class EmptyInput(DomainError):
    """A generator list or similar collection was empty."""


class NonPositiveGenerator(DomainError, ValueError):
    """A generator was zero or negative."""


class NonCoprimeGenerators(DomainError):
    """Semigroup generators with gcd > 1 generate no numerical semigroup."""


class NotRepresentable(DomainError):
    """No factorization of the requested integer over the given generators."""


class InvalidIndices(DomainError, ValueError):
    """A generator index subset was empty or indexed past the generators."""


class UnboundVariable(DomainError):
    """A polynomial was evaluated at a point missing one of its variables."""


class UnknownVariable(DomainError):
    """A coefficient assignment names a variable the template does not have."""


class PresentationMismatch(DomainError):
    """A variety presentation was passed along with a different semigroup."""


class ModulusMismatch(DomainError):
    """Arithmetic combined truncated series over different moduli."""


class ZeroPolynomial(DomainError):
    """The zero polynomial has no lowest weighted-homogeneous part."""


class ArityMismatch(DomainError):
    """Generator count does not match the substitution's variable count."""


class NotNormalForm(DomainError):
    """A numeric generator tuple failed the normal-form shape check."""


class WrongGeneratorCount(DomainError):
    """An operation specific to three-generator semigroups got something else."""


class NotInVariety(DomainError):
    """A coefficient point violates the defining equations it must satisfy."""


class OrderZeroGenerator(DomainError):
    """Subalgebra generators must have positive order (no units, no empty set)."""
