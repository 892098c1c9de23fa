"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A spec, parameter file, or experiment config is invalid or incomplete."""


class InsufficientDataError(ValueError):
    """Not enough samples/users/scores to perform the requested computation."""


class IntegrationError(ArithmeticError):
    """ODE integration failed (non-finite state or step-size underflow).

    Carries the macro step index at which the failure occurred, and for a
    batch the failing row and the cascade that failed in it.
    """

    def __init__(self, message, step=None, sim=None, cascade=None):
        if step is not None:
            message = f"{message} (step {step}" + (f", sim {sim})" if sim is not None else ")")
        if cascade is not None:
            message = f"{cascade} cascade: {message}"
        super().__init__(message)
        self.step = step
        self.sim = sim
        self.cascade = cascade
