"""Exception types shared across the package, the finiteness check
that the GAN and refinement settings run before their range checks, and
the decoding check of every input file reader."""

import math
from contextlib import contextmanager
from dataclasses import fields


class SubmapError(Exception):
    """Base class for all typed failures raised by this package."""


class ConfigError(SubmapError):
    """Invalid configuration value or out-of-range parameter."""


def check_finite(settings) -> None:
    """Raise ConfigError for a NaN or infinite float field: NaN passes
    every `<` range test, and inf passes a positivity one."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")


class ParseError(SubmapError):
    """Malformed input file (embedding, dictionary, map, or partition)."""


@contextmanager
def utf8_input(path, error: type[SubmapError] = ParseError):
    """Raise a UnicodeDecodeError from reading `path` inside the block as
    `error`, naming the file: every input file is UTF-8 text."""
    try:
        yield
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text (byte 0x{e.object[e.start]:02x}: "
                    f"{e.reason})") from None


class EmptySpaceError(SubmapError):
    """An embedding file yielded zero usable rows."""


class DegenerateVectorError(SubmapError):
    """A zero or non-finite vector was encountered where a direction is required."""


class NumericError(SubmapError):
    """Non-finite values appeared in a numeric computation."""


class ShapeError(SubmapError):
    """Array dimensions do not match the operation's contract."""


class TooFewSamplesError(SubmapError):
    """An operation needs at least two sample rows."""


class EmptyDictionaryError(SubmapError):
    """Bidirectional induction produced no mutual translation pairs."""


class TrainingFailedError(SubmapError):
    """Every adversarial training restart diverged."""


class EmptyEvaluationError(SubmapError):
    """No gold dictionary entry was evaluable against the given spaces."""
