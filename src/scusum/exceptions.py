"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so keep the classes coarse:
usage problems are plain ``ValueError``, everything else gets a class here.
"""


class NumericsError(RuntimeError):
    """A computation produced a non-finite intermediate value."""


class TrainingError(RuntimeError):
    """Optimization diverged; carries the offending epoch index."""

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch


class BoundDomainError(ValueError):
    """Inputs violate the validity condition of a theoretical bound."""


class DataError(ValueError):
    """Base class for a data file the CLI rejects with exit 3: AMC, trajectory CSV or ``model.bin``."""


class AmcError(DataError):
    """Base class for motion-capture ingestion failures."""


class AmcParseError(AmcError):
    """A token could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class AmcStructureError(AmcError):
    """Frames are inconsistent (index gaps, bone mismatches, ...)."""


class TrajectoryCsvError(DataError):
    """A trajectory CSV is empty, has no state column, is too short, or has a bad row;
    the message names its path."""


class ModelFileError(DataError):
    """A ``model.bin`` file is corrupt or truncated; carries the file's path."""

    def __init__(self, path, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
