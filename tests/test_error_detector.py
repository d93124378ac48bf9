"""Spatial error detector (§3.3, Algorithm 1)."""
import pandas as pd
import pytest

from repro.core.error_detector import detect_errors
from repro.evalx.toy import TOY_DM, TOY_RECORDS, toy_df, toy_dm


def ids(df):
    return sorted(r[0] for r in df.collect())


class TestPaperExample:
    """Figure 3: r1..r6 become erroneous, r7 stays clean."""

    @pytest.fixture(scope="class")
    def result(self, spark):
        return detect_errors(toy_df(spark), toy_dm(spark), attribute="borough")

    def test_erroneous_cells(self, result):
        assert ids(result.error_ids) == [1, 2, 3, 4, 5, 6]

    def test_clean_cells(self, result):
        assert ids(result.clean_ids) == [7]

    def test_partition_is_disjoint_and_complete(self, result):
        assert set(ids(result.error_ids)) | set(ids(result.clean_ids)) == set(range(1, 8))
        assert not set(ids(result.error_ids)) & set(ids(result.clean_ids))

    def test_symmetric_distance_matrix_flags_the_same_cells_without_copies(self, spark, result):
        """Figure 3c holds every pair both ways, so the reversed copies add nothing.

        Rows that carry a symmetric join's key get none; a constant key
        puts every cell in one location."""
        key = ("0 AS _cx", "0 AS _cy")
        undirected = detect_errors(
            toy_df(spark).selectExpr("*", *key),
            toy_dm(spark).selectExpr("*", *key),
            attribute="borough",
        )
        assert ids(undirected.error_ids) == ids(result.error_ids)
        assert ids(undirected.clean_ids) == ids(result.clean_ids)
        assert undirected.rows.count() == len(TOY_DM) + len(TOY_RECORDS)


class TestEdgeCases:
    def _detect(self, spark, records, dm_rows):
        df = spark.createDataFrame(
            pd.DataFrame(records, columns=["rid", "borough"])
        )
        dm = spark.createDataFrame(
            pd.DataFrame(dm_rows, columns=["r1", "r2", "v1", "v2", "dist_m", "w"]),
            schema="r1 long, r2 long, v1 string, v2 string, dist_m double, w double",
        )
        return detect_errors(df, dm, attribute="borough")

    def test_agreeing_neighbors_stay_clean(self, spark):
        res = self._detect(
            spark,
            [(1, "A"), (2, "A")],
            [(1, 2, "A", "A", 100.0, 0.5), (2, 1, "A", "A", 100.0, 0.5)],
        )
        assert ids(res.error_ids) == [] and ids(res.clean_ids) == [1, 2]

    def test_disagreeing_pair_flags_both(self, spark):
        res = self._detect(
            spark,
            [(1, "A"), (2, "B")],
            [(1, 2, "A", "B", 100.0, 0.5), (2, 1, "B", "A", 100.0, 0.5)],
        )
        assert ids(res.error_ids) == [1, 2]

    def test_null_cell_is_error_even_without_neighbors(self, spark):
        res = self._detect(spark, [(1, None), (2, "A")], [])
        assert ids(res.error_ids) == [1] and ids(res.clean_ids) == [2]

    def test_null_vs_value_pair_flags_both(self, spark):
        res = self._detect(
            spark,
            [(1, None), (2, "A")],
            [(1, 2, None, "A", 50.0, 0.9), (2, 1, "A", None, 50.0, 0.9)],
        )
        assert ids(res.error_ids) == [1, 2]

    def test_two_nulls_flagged_by_null_rule_not_violation(self, spark):
        res = self._detect(
            spark,
            [(1, None), (2, None), (3, "A")],
            [(1, 2, None, None, 50.0, 0.9), (2, 1, None, None, 50.0, 0.9)],
        )
        assert ids(res.error_ids) == [1, 2] and ids(res.clean_ids) == [3]

    def test_empty_distance_matrix_all_clean(self, spark):
        res = self._detect(spark, [(1, "A"), (2, "B")], [])
        assert ids(res.error_ids) == [] and ids(res.clean_ids) == [1, 2]

    def test_isolated_record_with_value_stays_clean(self, spark):
        res = self._detect(
            spark,
            [(1, "A"), (2, "B"), (3, "B")],
            [(2, 3, "B", "B", 10.0, 1.0), (3, 2, "B", "B", 10.0, 1.0)],
        )
        assert ids(res.error_ids) == [] and ids(res.clean_ids) == [1, 2, 3]
