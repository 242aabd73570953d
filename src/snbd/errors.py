"""Exception hierarchy shared by all snbd modules."""


class SnbdError(Exception):
    """Base class for every error raised by this package.

    Pickled by its state, not by its constructor's arguments, so that an
    error raised in a forked sibling reaches the caller as itself.
    """

    def __reduce__(self):
        return _restore, (type(self), self.args, self.__dict__)


def _restore(cls, args, state):
    err = cls.__new__(cls)
    err.args = args
    err.__dict__.update(state)
    return err


class ShapeError(SnbdError):
    """Operands have incompatible or non-square shapes."""


class ContractViolationError(SnbdError):
    """An input violates a documented precondition (e.g. not Hermitian)."""


class DimensionLimitError(SnbdError):
    """A full-space dimension exceeds the configured maximum (SNBD_MAX_DIM)."""


class UnsupportedInteractionError(SnbdError):
    """Pair interaction outside the supported swap-symmetric Hermitian class."""


class GridError(SnbdError):
    """Time grid is non-uniform or inconsistent with the step size."""


class ConfigError(SnbdError):
    """Invalid run configuration; message carries the offending field path."""

    def __init__(self, message, path=None):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class TrajectoryBlowupError(SnbdError):
    """A trajectory diverged: a density entry NaN, inf or beyond NORM_CAP."""

    def __init__(self, t, trajectory=None):
        self.t = t
        self.trajectory = trajectory
        where = f"trajectory {trajectory}, " if trajectory is not None else ""
        super().__init__(f"{where}t={t:.6g}: diverged: a density entry is "
                         f"NaN, inf or beyond NORM_CAP (1e4)")


class PositivityViolationError(SnbdError):
    """A one-body density eigenvalue dropped below -positivity_tol."""

    def __init__(self, t, particle, min_eig, tol, trajectory=None):
        self.t = t
        self.particle = particle
        self.min_eig = min_eig
        self.tol = tol
        self.trajectory = trajectory
        where = f"trajectory {trajectory}, " if trajectory is not None else ""
        super().__init__(
            f"{where}t={t:.6g}, particle {particle}: "
            f"min eigenvalue {min_eig:.3e} below -{tol:.3e}"
        )


class NonFiniteOutputError(SnbdError):
    """A result handed to the output writer holds NaN or inf."""


class MissingDataError(SnbdError):
    """Requested data was not recorded during the run."""


class WorkerLostError(SnbdError):
    """A forked sibling process ended before its runs finished."""


class DegenerateReferenceError(SnbdError):
    """The recovery reference vector is nearly orthogonal to the state."""


class PhaseSingularityError(SnbdError):
    """The phase-formula overlap dropped below the safe threshold."""

    def __init__(self, t, overlap):
        self.t = t
        self.overlap = overlap
        super().__init__(f"overlap |<psi0|phi(t)>| = {overlap:.3e} at t={t:.6g}")
