"""The errors `spt` maps to exit codes, apart from the modules that raise them (and import
them from here), so that `sptqmc.cli` can name them all without loading numpy or mpmath."""


class ModelValidationError(ValueError):
    """The energies/wmat pair, or the builder's parameters, do not describe a valid model."""


class FitConditioningError(RuntimeError):
    """A polynomial fit inside an oracle is not trustworthy."""


class DegeneracyError(RuntimeError):
    """The ground state of H(lambda) approaches a crossing on the grid."""


class OrderCapError(ValueError):
    """Requested order exceeds the configured cap."""


class MissingOrderError(KeyError):
    """A cumulant recursion was asked to run with incomplete lower orders."""


class SeriesTooShortError(ValueError):
    """The series cannot support the requested analysis."""


class WindowSelectionError(RuntimeError):
    """No self-consistent autocovariance truncation window exists."""


class NonLinearityError(RuntimeError):
    """A gamma_n(tau) fit deviates from linearity beyond tolerance."""
