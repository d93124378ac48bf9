"""Geodesic distance as Spark SQL expression text.

Two distance functions are provided, matching the paper's distance function
``F`` (§3.1, Euclidean; road-network distance is out of scope — noted in
DESIGN.md):

- :func:`haversine_m` — great-circle distance in meters; exact on the
  sphere, used when city extents are large or correctness tests demand it.
- :func:`equirect_m` — equirectangular (flat-earth) approximation around a
  reference latitude; within a city-sized extent it differs from haversine
  by well under 0.1% and is much cheaper. This is the default ``F``.

Each function takes its operands as column names or SQL text and returns
SQL text, which the caller hands to ``selectExpr``, ``where`` or
``F.expr``: the distance runs inside Catalyst, never in Python, and
Python builds it without a py4j round trip to the JVM per operator. Constants
are written as exact double literals (:func:`sql_double`); every layer's
SQL text quotes a column name it does not own with :func:`sql_ident`.
Both helpers live here, at the bottom of the package's imports, with the
record schema; ``repro.spatial.join`` exports them all.
"""
import math

#: The input schema every layer reads, a record id and its coordinates; the
#: names appear as they are in every layer's SQL text.
ID = "rid"
LAT = "lat"
LON = "lon"

#: Mean Earth radius (IUGG), meters.
EARTH_RADIUS_M = 6_371_008.8

#: Meters per degree of latitude (constant on the sphere).
M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0


def sql_double(x: float) -> str:
    """``x`` as a Spark SQL DOUBLE literal that parses back to the same bits.

    A bare ``0.1`` parses as a DECIMAL, which would round differently, so
    the literal carries the ``D`` suffix; ``repr`` is the shortest decimal
    string that round-trips a finite float. An infinite or NaN ``x`` has
    no literal (``infD`` would name a column) and raises ``ValueError``.
    """
    if not math.isfinite(x):
        raise ValueError(f"no SQL double literal for a non-finite value: {x!r}")
    return repr(float(x)) + "D"


def sql_ident(name: str) -> str:
    """``name`` as a backtick-quoted SQL identifier, any backtick doubled.

    Quoted, a name with a dot (``zip.code``) names one column, not a field
    of a struct column ``zip``.
    """
    return "`" + name.replace("`", "``") + "`"


def meters_per_degree_lon(ref_lat_deg: float) -> float:
    """Meters spanned by one degree of longitude at ``ref_lat_deg``."""
    return M_PER_DEG_LAT * math.cos(math.radians(ref_lat_deg))


def delta_lon(lon1: str, lon2: str) -> str:
    """``lon2 − lon1`` folded into [−180, 180], the short way round the globe.

    A pair on either side of the antimeridian (179.999 and −179.999) is
    0.002° apart, not 359.998°; a difference already in range is returned
    unchanged, bit for bit.
    """
    d = f"({lon2} - {lon1})"
    return f"(CASE WHEN {d} > 180 THEN {d} - 360 WHEN {d} < -180 THEN {d} + 360 ELSE {d} END)"


def haversine_m(lat1: str, lon1: str, lat2: str, lon2: str) -> str:
    """Great-circle distance in meters between two (lat, lon) columns."""
    dlat = f"radians({lat2} - {lat1})"
    dlon = f"radians({delta_lon(lon1, lon2)})"
    a = (
        f"pow(sin({dlat} / 2), 2)"
        f" + cos(radians({lat1})) * cos(radians({lat2})) * pow(sin({dlon} / 2), 2)"
    )
    # asin(sqrt(a)) is stable for the small angles seen at city scale.
    return f"({sql_double(2 * EARTH_RADIUS_M)} * asin(sqrt({a})))"


def equirect_m(lat1: str, lon1: str, lat2: str, lon2: str, ref_lat_deg: float) -> str:
    """Equirectangular-projection distance in meters around ``ref_lat_deg``."""
    dx = f"({delta_lon(lon1, lon2)} * {sql_double(meters_per_degree_lon(ref_lat_deg))})"
    dy = f"(({lat2} - {lat1}) * {sql_double(M_PER_DEG_LAT)})"
    return f"sqrt({dx} * {dx} + {dy} * {dy})"


def distance_expr(
    kind: str, lat1: str, lon1: str, lat2: str, lon2: str, ref_lat_deg: float
) -> str:
    """Dispatch on the constraint's distance-function name ``F``."""
    if kind == "haversine":
        return haversine_m(lat1, lon1, lat2, lon2)
    if kind == "equirect":
        return equirect_m(lat1, lon1, lat2, lon2, ref_lat_deg)
    raise ValueError(f"unknown distance function {kind!r} (use 'haversine' or 'equirect')")
