"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration: unknown names, bad field values, malformed files."""


def raise_problems(problems, heading=None) -> None:
    """Raise one ConfigurationError listing the problems, if any, one per line."""
    if problems:
        raise ConfigurationError("\n  ".join(([heading] if heading else []) + problems))


class NumericalError(RuntimeError):
    """A numerical procedure failed (degenerate input, no usable data, ...)."""


class DegenerateLatentError(NumericalError):
    """A latent vector mapped to the zero vector before normalization."""


class ProjectionFailureError(NumericalError):
    """All restarts of an iterative projection hit degenerate latents."""


class InsufficientDataError(NumericalError):
    """Not enough valid points remain for a fit."""
