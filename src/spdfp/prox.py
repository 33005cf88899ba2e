"""Proximal maps for the composite term, their residuals, and rescaling.

Only the l1 norm (weighted) and the zero function ship; both prox maps are
closed-form, firmly nonexpansive, and satisfy prox(y) + residual(y) = y
exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("l1", "zero")


@dataclass(frozen=True)
class ProxSpec:
    """The nonsmooth factor f1: kind 'l1' means weight * ||.||_1, 'zero' means 0."""

    kind: str = "l1"
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown prox kind {self.kind!r}; expected one of {KINDS}")
        if not 0 <= self.weight < math.inf:
            raise ValueError("prox weight must be nonnegative and finite")


def prox(spec, tau, y):
    """prox of tau*f1 at y: componentwise soft-threshold for l1, identity for zero.

    Ties |y_i| == tau*weight map to exactly 0.
    """
    if not tau >= 0:
        raise ValueError("prox step tau must be nonnegative")
    y = np.ascontiguousarray(y, dtype=np.float64)
    if spec.kind == "zero":
        return y.copy()
    return soft_threshold(y, tau * spec.weight)


def soft_threshold(y, t):
    """sign(y) * max(|y| - t, 0) componentwise: the one soft-threshold, which
    the fused C lane (lane.c's soft) mirrors op for op. A negative y with
    |y| <= t gives -0.0, both zeros give +0.0, and NaN stays NaN."""
    return np.sign(y) * np.maximum(np.abs(y) - t, 0.0)


def prox_residual(spec, tau, y):
    """y - prox(spec, tau, y); the dual-side operator of the fixed-point map."""
    y = np.ascontiguousarray(y, dtype=np.float64)
    return y - prox(spec, tau, y)


def prox_scaled(spec, r, y):
    """prox of h(x) = r * f1(x / r) at y, via the identity
    prox_h(y) = r * prox_{f1 / r}(y / r)."""
    if not 0 < r < math.inf:
        raise ValueError("scale r must be positive and finite")
    y = np.asarray(y, dtype=np.float64)
    return r * prox(spec, 1.0 / r, y / r)
