"""Exception types shared across the package."""


class PreconditionError(ValueError):
    """An input violates a documented precondition (bad shape, non-orthonormal
    factor, parameters outside the constraint set, ...)."""


class DomainError(ValueError):
    """The inputs are structurally valid but outside the operation's domain
    (non-commuting covariances, sigma_t = 0, u <= 0, ...)."""


class SingularCovarianceError(DomainError):
    """A covariance with a zero isotropic floor cannot be inverted."""


class InsufficientDataError(ValueError):
    """Too few samples to estimate the requested quantity."""


class StalledOptimizationError(RuntimeError):
    """A line search shrank its step below the smallest trial step."""


class DivergenceError(RuntimeError):
    """A training loop exceeded the divergence threshold.

    ``diagnostics`` holds the step index and the offending loss value;
    ``checkpoint`` the last healthy state, when the caller kept one.
    """

    def __init__(self, message, diagnostics=None, checkpoint=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
        self.checkpoint = checkpoint


class ConfigError(ValueError):
    """An experiment configuration failed schema or semantic validation."""
