"""Exception types shared across the package."""


class PreconditionError(ValueError):
    """An input violates a documented precondition: a bad shape, a
    non-orthonormal factor, parameters outside the constraint set, inputs
    outside an operation's domain (non-commuting covariances, u <= 0, a
    singular covariance) or too few samples for an estimate.  The CLI exits
    2 on it."""


class StalledOptimizationError(RuntimeError):
    """A line search shrank its step below the smallest trial step."""


class DivergenceError(RuntimeError):
    """A training loop exceeded the divergence threshold.

    ``diagnostics`` holds the step index and the offending loss value;
    ``checkpoint`` the last healthy state, when the caller kept one.
    """

    def __init__(self, message, diagnostics, checkpoint=None):
        super().__init__(message)
        self.diagnostics = diagnostics
        self.checkpoint = checkpoint

    def __reduce__(self):
        """Pickle through the constructor, so the error crosses a process pipe."""
        return type(self), (self.args[0], self.diagnostics, self.checkpoint)


class ConfigError(ValueError):
    """An experiment configuration failed schema or semantic validation."""
