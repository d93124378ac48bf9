"""Spatial denial constraints (§3.1).

The paper extends the denial-constraint language with two spatial
predicates over ``(lat, lon)`` pairs:

- ``SpatialRange(..., d, F, W)`` — records within distance ``d`` under
  distance function ``F`` should agree on the dependent attribute, with
  confidence given by weight function ``W``;
- ``SpatialkNN(..., k, F, W)`` — ditto for the k nearest neighbors.

``ExactLocationConstraint`` is the degenerate classical constraint (same
exact coordinates ⇒ same value) that the host systems already support; the
baselines run on it, and it is also what a ``SpatialRange`` with ``d = 0``
means (paper §6.1: "setting d to 0 is equivalent to not considering spatial
awareness at all").
"""
import math
from dataclasses import dataclass, field

from repro.spatial.geo import sql_double


@dataclass(frozen=True)
class WeightFunction:
    """The paper's weight function ``W(r1, r2) = (1 − F(r1,r2)/d)^n`` (§6).

    ``n`` is the exponential weight parameter: larger ``n`` concentrates
    weight on closer records; ``n = 0`` cancels distance weighting
    entirely (every in-neighborhood pair weighs 1 — the ablation in the
    paper's experiments).
    """

    n: float = 2.0
    #: Lower bound on emitted weights. 0 for range constraints (the paper's
    #: form reaches 0 only exactly at d, which the strict `< d` filter
    #: excludes); kNN constraints floor at 0.01 because the paper defines
    #: d as the k-th neighbor distance, which would zero out that neighbor
    #: (substitution documented in DESIGN.md).
    floor: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.n) and math.isfinite(self.floor)):
            raise ValueError(f"weight n and floor must be finite, got {self.n}, {self.floor}")

    def expr(self, dist: str, d_max: str) -> str:
        """Weight as SQL text over ``dist`` and ``d_max``, each a column name
        or SQL text; ``d_max`` may vary per row (kNN)."""
        if self.n == 0:
            return sql_double(1.0)
        base = f"greatest({sql_double(0.0)}, {sql_double(1.0)} - {dist} / {d_max})"
        # Pairs at d_max = 0 (exact duplicates) satisfy the rule maximally.
        w = (
            f"(CASE WHEN {d_max} <= {sql_double(0.0)} THEN {sql_double(1.0)}"
            f" ELSE pow({base}, {sql_double(self.n)}) END)"
        )
        if self.floor > 0:
            return f"greatest({w}, {sql_double(self.floor)})"
        return w


@dataclass(frozen=True)
class SpatialRangeConstraint:
    """``¬(SpatialRange(r1, r2, d, F, W) ∧ r1.attr ≠ r2.attr)``."""

    attribute: str
    d_m: float
    weight: WeightFunction = field(default_factory=WeightFunction)
    distance: str = "equirect"  # the paper's F: 'equirect' or 'haversine'

    def __post_init__(self) -> None:
        if not (math.isfinite(self.d_m) and self.d_m >= 0):
            raise ValueError(f"range distance must be finite and >= 0, got {self.d_m}")


@dataclass(frozen=True)
class SpatialKNNConstraint:
    """``¬(SpatialkNN(r1, r2, k, F, W) ∧ r1.attr ≠ r2.attr)``."""

    attribute: str
    k: int
    weight: WeightFunction = field(default_factory=lambda: WeightFunction(n=2.0, floor=0.01))
    distance: str = "equirect"

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")


@dataclass(frozen=True)
class ExactLocationConstraint:
    """Classical denial constraint on exact coordinate equality.

    ``¬(r1.lat = r2.lat ∧ r1.lon = r2.lon ∧ r1.attr ≠ r2.attr)`` — what
    HoloClean/Baran evaluate without Sparcle; all pair weights are 1.
    """

    attribute: str


Constraint = SpatialRangeConstraint | SpatialKNNConstraint | ExactLocationConstraint
