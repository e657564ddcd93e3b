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


def log_binomial(n: int, k) -> np.ndarray | float:
    """log of the binomial coefficient C(n, k), via lgamma."""
    from scipy.special import gammaln

    n_arr = np.asarray(n, dtype=float)
    k_arr = np.asarray(k, dtype=float)
    return gammaln(n_arr + 1.0) - gammaln(k_arr + 1.0) - gammaln(n_arr - k_arr + 1.0)
