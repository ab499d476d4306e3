"""Exception types and validation helpers shared across the package."""

import math
import numbers


class ConfigurationError(ValueError):
    """Invalid configuration: unknown names, bad field values, malformed files."""


def raise_problems(problems, heading=None) -> None:
    """Raise one ConfigurationError listing the problems, if any, one per line."""
    if problems:
        raise ConfigurationError("\n  ".join(([heading] if heading else []) + problems))


def is_integer(v) -> bool:
    """An integer (a numpy one too) that is not a bool: json reads true and
    false as bools, which are ints."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def seed_problems(seed, name="seed") -> list:
    """The seed rule, as a list of problems: a nonnegative integer, as
    numpy's seeding needs."""
    ok = is_integer(seed) and seed >= 0
    return [] if ok else [f"{name}: must be a nonnegative integer, got {seed!r}"]


def seed_key_problems(seed, name="seed") -> list:
    """The seed rule for a random-stream key: one seed, or a list or tuple of
    seeds (a SeedSequence key such as [seed, 1])."""
    parts = seed if isinstance(seed, (list, tuple)) else [seed]
    ok = not any(seed_problems(s) for s in parts)
    return [] if ok else [f"{name}: must be a nonnegative integer or a list of them, "
                          f"got {seed!r}"]


def is_finite_number(v) -> bool:
    """A real number, not a bool, that is neither NaN nor infinite and fits a
    float.  Python's json reads NaN and Infinity literals, and a range check
    such as x <= 0 lets NaN through."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:      # an int too large for a float
        return False


class NumericalError(RuntimeError):
    """A numerical procedure failed (degenerate input, no usable data, ...)."""


class DegenerateLatentError(NumericalError):
    """A latent vector mapped to the zero vector before normalization."""


class ProjectionFailureError(NumericalError):
    """All restarts of an iterative projection hit degenerate latents."""


class InsufficientDataError(NumericalError):
    """Not enough valid points remain for a fit."""
