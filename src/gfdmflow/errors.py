"""Exception types shared across the package."""


class GfdmFlowError(Exception):
    """Base class for all package-specific errors."""


class CloudError(GfdmFlowError):
    """Invalid node cloud construction or geometry."""


class StencilUnderdeterminedError(GfdmFlowError):
    """Fewer neighbors than the five derivative unknowns require."""


class DegenerateStencilError(GfdmFlowError):
    """Stencil geometry makes the local least-squares system (near-)singular."""


class SetupError(GfdmFlowError):
    """Inconsistent problem setup (missing specs, radius too small, ...)."""


class UnphysicalValueError(GfdmFlowError):
    """A constitutive relation produced a value outside its physical range."""


class LinearSolveError(GfdmFlowError):
    """Sparse linear solve failed (singular or ill-conditioned matrix)."""


class TimeStepCollapseError(GfdmFlowError):
    """Repeated time-step cuts failed to produce a converged Newton step.

    ``t`` is the start of the step and ``dt`` the last step size tried;
    ``node`` and ``variable`` (``"p"`` or ``"Sw"``) name the unknown whose
    row held the worst residual at the end of that last attempt.
    """

    def __init__(self, message: str, *, t: float, dt: float, node: int, variable: str):
        super().__init__(message)
        self.t, self.dt, self.node, self.variable = t, dt, node, variable


class ConfigError(GfdmFlowError):
    """Scenario configuration failed validation.

    Carries the full list of problems so callers can report every issue
    at once instead of the first one found.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
