"""Dialect labels and the sweep's mixture sizes, shared across the package."""

from enum import Enum


class DialectLabel(str, Enum):
    """The two Tamil dialect classes: literary (LT) and colloquial (CT).

    LT is the positive class wherever precision/recall style metrics appear.
    """

    LT = "LT"
    CT = "CT"


# Components per dialect in the sweep; here so `dialectid` reads it without gmm.
SWEEP_COMPONENTS = (16, 32, 64, 128, 256)
