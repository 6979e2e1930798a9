"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An operation was called with inputs that break its contract
    (shape mismatch, out-of-bounds index, wrong length)."""


class ConfigError(ValueError):
    """A configuration object is internally inconsistent or out of range."""


class GraphStateError(RuntimeError):
    """The autodiff graph was used in an invalid order, e.g. a second
    backward pass without a new forward pass."""


class TrainingDivergence(RuntimeError):
    """Training produced a non-finite loss, or a momentum step wrote NaN or
    Inf into a parameter; carries the epoch/batch where.  ``what`` names the
    non-finite quantity: ``"loss"`` or ``"parameter 'name'"``.  For a loss,
    the message names the op where the bad value started."""

    def __init__(self, epoch: int, batch: int, message: str = "", what: str = "loss"):
        self.epoch = epoch
        self.batch = batch
        super().__init__(
            f"non-finite {what} at epoch {epoch}, batch {batch}"
            + (f": {message}" if message else "")
        )
