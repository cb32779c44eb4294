"""Mode-by-mode admissibility of coated shapes given by Laurent maps.

A shell drawn by z = Phi(w) = sum_n a_n w^n between |w| = 1 and |w| = r0 can
carry a field neutral to two independent uniform gradients only if every
coefficient with |n| >= 1 sits on a mode whose factor

    factor(n) = (1 - f r0^(-2n)) (1 - f r0^(2n)) - kappa^2

vanishes, where f is the area fraction and kappa the design shear. The
factor is symmetric in n <-> -n and strictly decreasing in |n|, so at most
one order can be admissible; a shape is compatible with neutrality exactly
when its coefficient support is the single order n = 1 (an ellipse pair, up
to rotation) and factor(1) = 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ValidationError
from .geometry import LaurentMap
from .report import Report

VERDICT_COMPATIBLE = "confocal_compatible"
VERDICT_INCOMPATIBLE = "incompatible"
VERDICT_DEGENERATE = "degenerate"


def neutrality_factor(n: int, f: float, r0: float, shear: float) -> float:
    """factor(n) = (1 - f r0^(-2n))(1 - f r0^(2n)) - shear^2."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise ValidationError(f"mode order must be an integer, got {n!r}")
    if n == 0:
        raise ValidationError("mode order 0 has no neutrality factor")
    if not (0.0 < f < 1.0) or not math.isfinite(f):
        raise ValidationError(f"area fraction must lie in (0, 1), got {f}")
    if not (r0 > 1.0) or not math.isfinite(r0):
        raise ValidationError(f"modulus r0 must exceed 1, got {r0}")
    if not math.isfinite(shear):
        raise ValidationError(f"shear must be finite, got {shear}")
    m = abs(int(n))
    lo = r0 ** (-2 * m)
    hi = r0 ** (2 * m)
    return (1.0 - f * lo) * (1.0 - f * hi) - shear * shear


@dataclass(frozen=True)
class LaurentClassification(Report):
    """Per-mode factors and the resulting compatibility verdict."""

    factors: dict[int, float]
    support: tuple[int, ...]
    admissible: tuple[int, ...]
    verdict: str

    @property
    def is_compatible(self) -> bool:
        return self.verdict == VERDICT_COMPATIBLE


def classify(
    m: LaurentMap,
    f: float,
    shear: float,
    tol: float = 1e-9,
    coeff_tol: float = 1e-10,
) -> LaurentClassification:
    """Classify a Laurent map against the neutrality factors.

    support lists the positive orders n whose coefficient pair (a_n, a_-n)
    carries mass above coeff_tol; admissible lists orders with
    |factor(n)| <= tol. The verdict is compatible only when the support is
    exactly {1} and mode 1 is admissible.
    """
    if tol <= 0 or coeff_tol <= 0:
        raise ValidationError("tolerances must be positive")
    orders = range(1, m.max_order + 1)
    factors = {k: neutrality_factor(k, f, m.r0, shear) for k in orders}
    support = tuple(
        k
        for k in orders
        if max(abs(m.coeffs.get(k, 0.0)), abs(m.coeffs.get(-k, 0.0))) > coeff_tol
    )
    admissible = tuple(k for k in orders if abs(factors[k]) <= tol)
    if not support:
        verdict = VERDICT_DEGENERATE
    elif support == (1,) and 1 in admissible:
        verdict = VERDICT_COMPATIBLE
    else:
        verdict = VERDICT_INCOMPATIBLE
    return LaurentClassification(factors, support, admissible, verdict)
