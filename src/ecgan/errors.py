"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Tensor operands have incompatible or invalid shapes."""


class InvalidLabelError(ValueError):
    """A class label is outside [0, num_classes)."""


class SpecError(ValueError):
    """A network or dataset specification is invalid."""


class ContractError(RuntimeError):
    """An API precondition was violated by the caller."""


class FormatError(ValueError):
    """A file does not conform to its declared format.

    ``offset`` is the byte position of the problem when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ConfigError(ValueError):
    """An experiment configuration document is invalid."""


class DataError(ValueError):
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
    """A loss became non-finite during training."""

    def __init__(self, message, step=None):
        if step is not None:
            message = f"{message} (step {step})"
        super().__init__(message)
        self.step = step
