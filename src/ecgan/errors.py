"""Exception types shared across the package."""


class UsageError(Exception):
    """Bad input, not a fault of the program: the CLI prints it and exits 2."""


class ShapeError(UsageError, ValueError):
    """Tensor operands have incompatible or invalid shapes."""


class InvalidLabelError(UsageError, ValueError):
    """A class label is outside [0, num_classes)."""


class SpecError(UsageError, ValueError):
    """A network or dataset specification is invalid."""


class ContractError(UsageError, RuntimeError):
    """An API precondition was violated by the caller."""


class FormatError(UsageError, ValueError):
    """A file does not conform to its declared format.

    ``offset`` is the byte position of the problem when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ConfigError(UsageError, ValueError):
    """An experiment configuration document is invalid."""


class DataError(UsageError, ValueError):
    """A dataset operation cannot be satisfied by the data."""


def unique_keys(pairs, error):
    """An `object_pairs_hook` for `json`, which would keep the last value of
    a repeated key: the object as a dict, or `error` naming a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise error(f"repeated key {key!r}")
        obj[key] = value
    return obj


class TrainingDiverged(RuntimeError):
    """A half of a run left the finite floats: an operation of its training
    overflowed, was invalid (as inf - inf or 0 * inf) or divided by zero
    (`training.train_job`). `step` is the minibatch at which it did."""

    def __init__(self, message, step=None):
        if step is not None:
            message = f"{message} (step {step})"
        super().__init__(message)
        self.step = step
