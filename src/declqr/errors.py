"""Exception types shared across the toolkit."""


class InputError(ValueError):
    """Bad argument: wrong dimensions, non-finite entries, or a violated precondition."""


class SolverError(RuntimeError):
    """A numerical solve failed or a required certificate could not be established."""


class ResonantSpectrumError(SolverError):
    """An eigenvalue on, or within rounding of, the imaginary axis where a solve needs none."""


class UnstabilizableError(SolverError):
    """No stabilizing Riccati solution: an unstabilizable or ill-conditioned pair."""


class NonconvergentError(SolverError):
    """A sign iteration hit its step cap, or the Riccati residual missed its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
