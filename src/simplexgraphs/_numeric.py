"""Numeric helpers shared by the samplers and the closed-form oracles."""

from __future__ import annotations

import numpy as np


def pow_one_minus(x, exponent: float):
    """(1 - x)**exponent as exp(exponent * log1p(-x)), clamped to 0 for x >= 1.

    Naive powering loses all precision once the exponent reaches ~1e7; the
    log1p route stays exact to machine precision.  Accepts scalars or arrays.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    ok = arr < 1.0
    out[ok] = np.exp(exponent * np.log1p(-arr[ok]))
    return float(out[0]) if scalar else out

