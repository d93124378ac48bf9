"""The benchmark's workloads: which table, which dependencies, which call.

Each workload generates its table from a seed with the repository's
Voronoi analog generator and cleans it through a public entry point
(``sparcle_clean`` or ``host_baseline_clean``), collecting the repairs to
the driver as ``evalx.harness.run_system`` does. Tables are smaller than
the harness's ``bench_n``: a warm call's time is set mostly by its Spark
job and stage count rather than its row count, and the smaller tables
keep a benchmark run short enough to repeat.
"""
import hashlib
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.constraints import ExactLocationConstraint, SpatialRangeConstraint, WeightFunction
from repro.core.pipeline import CleanResult, host_baseline_clean, sparcle_clean
from repro.evalx.harness import AUSTIN, CHICAGO, DatasetSpec, _spark_view, adaptive_d
from repro.synth_spatial import spatial_dataset_pdf

ID = "rid"
#: The paper's deployment host corrects with AimNet (harness.run_system's
#: default), and the traced replay follows this corrector's path only.
CORRECTOR = "aimnet"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: DatasetSpec
    n: int  # records
    attributes: tuple[str, ...]  # dependencies cleaned per call, in order
    system: str  # "sparcle" (range constraint, adaptive d, n=2) or "host"
    held_out_seed: int  # never used while writing a change; see run.py --held-out

    @property
    def default_seed(self) -> int:
        return self.spec.seed

    @property
    def d_m(self) -> float:
        return adaptive_d(self.spec.bbox, self.n)

    def inputs(self, seed: int) -> pd.DataFrame:
        """The generated table, observed columns plus ``<attr>__truth``."""
        return spatial_dataset_pdf(n=self.n, attrs=self.spec.attrs, bbox=self.spec.bbox, seed=seed)

    def to_spark(self, spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
        """The program's input: observed columns only, never the truth."""
        return _spark_view(spark, pdf, self.spec.attrs)

    def constraint(self, attribute: str):
        if self.system == "host":
            return ExactLocationConstraint(attribute)
        return SpatialRangeConstraint(attribute, self.d_m, WeightFunction(n=2.0))

    def clean(self, sdf: DataFrame, attribute: str) -> CleanResult:
        if self.system == "host":
            return host_baseline_clean(sdf, attribute, corrector=CORRECTOR)
        return sparcle_clean(sdf, self.constraint(attribute), corrector=CORRECTOR)

    def clean_table(self, sdf: DataFrame) -> pd.DataFrame:
        """One call: clean every dependency, collect ``(attribute, rid, new_value)``."""
        parts = []
        for a in self.attributes:
            rep = self.clean(sdf, a).repairs.select(ID, "new_value").toPandas()
            rep.insert(0, "attribute", a)
            parts.append(rep)
        return pd.concat(parts, ignore_index=True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="austin-zipcode",
            why="Sparcle range constraint on Austin zipcode: nearly every cell is flagged, "
            "so candidate generation and the DistanceMatrix re-joins do the work",
            spec=AUSTIN,
            n=1_500,
            attributes=("zipcode",),
            system="sparcle",
            held_out_seed=9_101,
        ),
        Workload(
            name="chicago-host",
            why="host baseline on Chicago community: exact-location join, few pairs and "
            "candidates, so fixed per-job overhead dominates; bypasses the spatial rewrites",
            spec=CHICAGO,
            n=3_000,
            attributes=("community",),
            system="host",
            held_out_seed=9_102,
        ),
    )
}


def repair_digest(repairs: pd.DataFrame) -> str:
    """Order-free digest of a repair set ``(attribute, rid, new_value)``."""
    rows = sorted(
        f"{a}\t{r}\t{v}"
        for a, r, v in zip(repairs["attribute"], repairs[ID], repairs["new_value"])
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def repair_problems(pdf: pd.DataFrame, repairs: pd.DataFrame) -> list[str]:
    """Checks any correct repair set passes, whatever the seed.

    Every repaired cell exists, is repaired once, changes its observed
    value, and takes a value observed elsewhere in the same column.
    """
    problems = []
    observed_by_rid = pdf.set_index(ID)
    for a, rep in repairs.groupby("attribute"):
        if rep[ID].duplicated().any():
            problems.append(f"{a}: a cell repaired twice")
        if not rep[ID].isin(observed_by_rid.index).all():
            problems.append(f"{a}: repair of an unknown rid")
            continue
        old = observed_by_rid.loc[rep[ID], a].to_numpy()
        new = rep["new_value"].to_numpy()
        if any(o == v for o, v in zip(old, new)):
            problems.append(f"{a}: repair keeps the observed value")
        if not pd.Series(new).isin(set(pdf[a].dropna())).all():
            problems.append(f"{a}: repair to a value not in the column")
    return problems
