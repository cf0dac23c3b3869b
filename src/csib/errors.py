"""Exception types shared across the package."""


class CsibError(Exception):
    """Base class for all library errors."""


class DimensionError(CsibError):
    """Sample matrices have incompatible shapes."""


class InvalidKernelError(CsibError):
    """Kernel width is not a positive finite number."""


class SingularCovError(CsibError):
    """A covariance matrix required to be invertible is singular."""


class SingularMatrixError(CsibError):
    """A ridge-regularized Gram matrix is still numerically singular."""


class DegenerateInputError(CsibError):
    """Input carries no usable variation (e.g. constant samples)."""


class NumericalError(CsibError):
    """A computation produced NaN/inf where a finite value is required.

    ``last_model`` and ``epoch_log`` carry the most recent good training
    state when raised from the training loop.
    """

    def __init__(self, message, last_model=None, epoch_log=None):
        super().__init__(message)
        self.last_model = last_model
        self.epoch_log = epoch_log if epoch_log is not None else []


class ContractError(CsibError):
    """An API precondition was violated (e.g. non-scalar loss node)."""


class ParseError(CsibError):
    """A CSV file could not be parsed; message names row/column."""


class CheckpointError(CsibError):
    """A checkpoint's contents do not fit the model it describes."""


class ConfigError(CsibError):
    """A run configuration is inconsistent; message names the field."""


class GenerationError(CsibError):
    """Synthetic data generation exceeded its resampling budget."""


class CostGuardError(CsibError):
    """A brute-force oracle was asked to run beyond its size cap."""
