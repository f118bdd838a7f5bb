"""Derivative estimators: targets, specs and evaluation-point tables.

Two estimator families cover each derivative target:

* the scaled parameter-shift (SPS) family: the parameter-shift combination
  multiplied by a tunable scalar lambda. At lambda = 1 it is the plain
  parameter-shift (PS) rule, exact in expectation for Pauli-encoded
  rotations: gradients from shifts of +/- pi/2, diagonal second derivatives
  from the collapsed 3-point rule with shifts of +/- pi, and off-diagonal
  second derivatives from the 4-point rule;
* the centralized finite-difference (FD) family with step epsilon.

Each estimator is a weighted sum of the circuit function at shifted
parameter points. The harness evaluates those sums: exactly in
``harness._FunctionCache.mean``, and at finite shots with
``harness._binomial_estimates``. Circuits run only on the grid
{-pi/2, 0, +pi/2} over the shifted angles; f at any other point (the
diagonal rule's +/- pi, every finite-difference step) is rebuilt from it,
since f is a + b cos s + c sin s along each angle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

SCHEME_FAMILIES = ("sps", "fd")


# ── derivative targets ───────────────────────────────────────────────────────

@dataclass(frozen=True)
class Gradient:
    """First derivative in the angle at (qubit, layer, slot), 1-based."""

    qubit: int = 1
    layer: int = 2
    slot: int = 2


@dataclass(frozen=True)
class DiagHessian:
    """Second derivative in one angle at (qubit, layer, slot)."""

    qubit: int = 1
    layer: int = 2
    slot: int = 2


@dataclass(frozen=True)
class OffDiagHessian:
    """Mixed second derivative in two distinct angles."""

    qubit: int = 1
    layer: int = 2
    slot: int = 2
    qubit2: int = 2
    layer2: int = 2
    slot2: int = 2

    def __post_init__(self):
        if (self.qubit, self.layer, self.slot) == (
                self.qubit2, self.layer2, self.slot2):
            raise ValueError("off-diagonal target needs two distinct angles")


DerivativeTarget = Gradient | DiagHessian | OffDiagHessian


def target_kind(target: DerivativeTarget) -> str:
    if isinstance(target, Gradient):
        return "gradient"
    if isinstance(target, DiagHessian):
        return "diag"
    if isinstance(target, OffDiagHessian):
        return "offdiag"
    raise TypeError(f"not a derivative target: {target!r}")


def point_count(target: DerivativeTarget) -> int:
    """Number of circuit evaluation points the estimators spend shots on."""
    return {"gradient": 2, "diag": 3, "offdiag": 4}[target_kind(target)]


# ── estimator choice ─────────────────────────────────────────────────────────

@dataclass(frozen=True)
class EstimatorSpec:
    """Scheme family (sps | fd) with its free parameter, plus the target."""

    scheme: str
    target: DerivativeTarget
    lam: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.scheme not in SCHEME_FAMILIES:
            raise ValueError(f"scheme must be one of {SCHEME_FAMILIES}")
        if self.scheme == "sps":
            if self.lam is None or not math.isfinite(self.lam) or self.lam <= 0:
                raise ValueError("sps needs a finite positive lambda")
        if self.scheme == "fd":
            if self.epsilon is None or not 0.0 < self.epsilon < 2.0 * math.pi:
                raise ValueError("fd needs epsilon in (0, 2*pi)")


# ── evaluation-point tables ──────────────────────────────────────────────────

def evaluation_points(spec: EstimatorSpec):
    """The shifted points and combination weights defining the estimator.

    Returns a list of (shifts, coeff) pairs: ``shifts`` maps
    (qubit, layer, slot) to an angle offset, and the estimate is
    sum(coeff * f_hat(theta shifted)).
    """
    kind = target_kind(spec.target)
    if spec.scheme == "sps":
        lam = float(spec.lam)
        shift, denom = math.pi / 2.0, 2.0
        shift2, denom2 = math.pi, 4.0
    else:
        eps = float(spec.epsilon)
        lam = 1.0
        shift, denom = eps / 2.0, eps
        shift2, denom2 = eps, eps * eps
    t = spec.target
    p = (t.qubit, t.layer, t.slot)
    if kind == "gradient":
        return [({p: +shift}, +lam / denom), ({p: -shift}, -lam / denom)]
    if kind == "diag":
        return [({p: +shift2}, +lam / denom2), ({}, -2.0 * lam / denom2),
                ({p: -shift2}, +lam / denom2)]
    q = (t.qubit2, t.layer2, t.slot2)
    unit = lam / denom2
    return [({p: +shift, q: +shift}, +unit), ({p: +shift, q: -shift}, -unit),
            ({p: -shift, q: +shift}, -unit), ({p: -shift, q: -shift}, +unit)]

