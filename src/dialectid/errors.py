"""Exception types raised by the dialectid package.

Domain failures (bad audio, bad manifests, corrupt model files, degenerate
analysis frames) get their own classes so callers can map them to exit codes
or skip policies. Plain programming errors (dimension mismatches, invalid
argument combinations) and invalid config values stay ValueError; every
config dataclass first rejects values of the wrong kind and NaN and
infinite values with require_finite_fields.
"""

import dataclasses
import math
import numbers
from contextlib import contextmanager


class DialectIdError(Exception):
    """Base class for all domain errors raised by this package."""


class SignalTooShort(DialectIdError):
    """Signal shorter than a single analysis frame."""


@contextmanager
def naming(path):
    """Put path in front of the message of a SignalTooShort raised inside."""
    try:
        yield
    except SignalTooShort as exc:
        raise SignalTooShort(f"{path}: {exc}") from None


class SampleRateMismatch(DialectIdError):
    """Audio sample rate differs from the canonical rate; we never resample."""


class AudioFormatError(DialectIdError):
    """WAV file is not 16-bit PCM mono, or is not parseable at all."""


class FewerFramesThanComponents(DialectIdError):
    """Training data has fewer frames than requested mixture components."""


class DegenerateFrame(DialectIdError):
    """Zero-energy frame; linear prediction is undefined."""


class UnstableFrame(DialectIdError):
    """Levinson recursion broke down (prediction error hit zero or below)."""


class ModelFileError(DialectIdError):
    """Model file is corrupt: bad magic, truncated, or wrong payload size."""


class ModelVersionError(ModelFileError):
    """Model file has an unsupported format version."""


class ModelInvariantError(DialectIdError):
    """Model contents violate an invariant (weights, variances, finiteness)."""


class FeatureFileError(DialectIdError):
    """Feature container file is corrupt or has an unsupported version."""


class ManifestError(DialectIdError):
    """Corpus manifest could not be parsed or violates manifest rules."""


class MissingDialectError(DialectIdError):
    """Training manifest lacks utterances for one of the dialects."""


class EmptyTestSetError(DialectIdError):
    """Evaluation requested but the manifest has no test utterances."""


class EmptyReportError(DialectIdError):
    """Nasalization comparison needs analyzed frames on both sides."""


class ConfigError(DialectIdError):
    """Configuration file is malformed or contains unknown keys."""


def require_finite_fields(config) -> None:
    """Raise ValueError unless each int field of a config dataclass holds an
    integer and each float field a finite number (bools are neither)."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        kind = numbers.Integral if field.type in ("int", int) else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{field.name} must be {field.type}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value!r}")
