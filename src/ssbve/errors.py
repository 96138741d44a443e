"""Exception hierarchy shared by all ssbve modules."""


class SsbveError(Exception):
    """Base class for every error raised by this package."""


class FormatError(SsbveError):
    """Malformed instance file or report input."""


class EmptySetError(SsbveError):
    """An operation that needs a nonempty vertex set received an empty one."""


class InvalidBudgetError(SsbveError):
    """Budget k outside the valid range for the instance."""


class CliqueTooSmallError(SsbveError):
    """Attached clique is not large enough to dominate the reduction."""


class InvalidExponentsError(SsbveError):
    """Log-density exponents violate the model's ordering constraints."""


class ArityTooLargeError(SsbveError):
    """Hyperedge arity too large for the subset-sampling budget."""


class ProbabilityOutOfRangeError(SsbveError):
    """Edge probability fell outside [0, 1]."""


class BudgetExceededError(SsbveError):
    """Enumeration or verification budget exceeded."""


class TooLargeError(SsbveError):
    """Instance too large for a brute-force oracle."""


class NegativeLambdaError(SsbveError):
    """Cut-selection parameter must be nonnegative."""


class EmptyLeftSideError(SsbveError):
    """Solver needs at least one admissible left vertex."""


class SolverStalledError(SsbveError):
    """An inner at-most solver returned an empty set."""


class NotCoprimeError(SsbveError):
    """Schedule parameters p, q must be coprime with 0 < p < q."""


class InvalidParameterError(SsbveError):
    """A solver parameter lies outside the range the solver accepts."""


class PreconditionViolatedError(SsbveError):
    """A step operation was invoked on a state violating its precondition."""


class InfeasibleError(SsbveError):
    """Requested degree sequence cannot be realized."""


class StalledError(SsbveError):
    """Greedy edge completion stalled and no augmenting swap exists."""


class ParameterRegimeError(SsbveError):
    """Certificate parameters violate an inequality the construction needs."""


class NoCoverError(SsbveError):
    """No cover exists for the requested vertex subset."""


class SizeExceededError(SsbveError):
    """Subset pair exceeds the lift's round budget."""


class InvalidRegimeError(SsbveError):
    """Unknown regime name for the gap-exponent calculator."""


class UnsupportedRegimeError(SsbveError):
    """Parameter regime requires an external solver that is not implemented."""
