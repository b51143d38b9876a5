"""repro: Mining Spatio-Temporal Reachable Regions over Massive Trajectory Data.

A from-scratch reproduction of Ding (2017): a data-driven spatio-temporal
reachability query system over massive trajectory data, with the ST-Index,
Con-Index, and the SQMB / TBS / MQMB query-processing algorithms, plus every
substrate they depend on (spatial indexes, road networks, a taxi-trajectory
generator, map matching, and a simulated disk with I/O accounting).

Module map (see ``docs/architecture.md`` for the routing diagram):

* ``repro.api`` — the stable front door: :class:`Request`/:class:`Response`
  envelopes, the adaptive :class:`Router` behind ``algorithm="auto"``, and
  :class:`ReachabilityClient` (``send`` / ``submit`` futures / ``stream``
  with bounded in-flight window / ``run_batch``); see ``docs/api.md``.
* ``repro.core`` — planner -> executor-registry -> storage query stack:
  :class:`QueryService` (batching, bounding-region dedup),
  :class:`ReachabilityEngine` (index ownership),
  ``planner`` / ``executors`` (routing and pluggable algorithms),
  ``st_index`` / ``con_index`` / ``probability`` / ``sqmb`` / ``tbs`` /
  ``mqmb`` / ``baseline`` / ``reverse`` (the paper's machinery),
  ``explain`` (plan + cost rendering).
* ``repro.storage`` — simulated disk, page store, LRU buffer pools with
  hit/miss/eviction accounting.
* ``repro.spatial`` — R-tree, B+-tree, grid, hulls, geometry.
* ``repro.network`` — road-network model, generators, re-segmentation,
  time-bounded expansion.
* ``repro.trajectory`` — fleet generator, map matching, speed profiles,
  the compact trajectory database.
* ``repro.datasets`` / ``repro.preprocessing`` / ``repro.io`` — the
  ShenzhenLike synthetic dataset, cleaning pipeline, persistence.
* ``repro.eval`` — Chapter-4 sweeps, workloads, table formatting.
* ``repro.apps`` — coverage, POI recommendation, isochrones, ETA demos.
* ``repro.viz`` / ``repro.cli`` — ASCII maps, GeoJSON, the command line.

Quickstart::

    from repro import (
        ReachabilityClient, ReachabilityEngine, Request, SQuery,
        build_shenzhen_like, day_time, Point,
    )

    dataset = build_shenzhen_like()
    client = ReachabilityClient(
        ReachabilityEngine(dataset.network, dataset.database)
    )
    query = SQuery(
        location=Point(0.0, 0.0),
        start_time_s=day_time(11),
        duration_s=10 * 60,
        prob=0.2,
    )
    response = client.send(Request(query))  # algorithm="auto"
    print(len(response.segments), "reachable segments via",
          response.route.algorithm)

    report = client.run_batch([query, SQuery(Point(0, 0), day_time(11),
                                             10 * 60, 0.8)])
    print(report.page_reads, "page reads for the whole batch")
"""

from repro.api import (
    QueryOptions,
    ReachabilityClient,
    Request,
    Response,
    RouteDecision,
    Router,
    as_client,
)
from repro.core import (
    BatchReport,
    ConnectionIndex,
    MQuery,
    ProbabilityEstimator,
    QueryPlan,
    QueryResult,
    QueryService,
    ReachabilityEngine,
    SQuery,
    STIndex,
)
from repro.datasets import (
    ShenzhenLikeConfig,
    ShenzhenLikeDataset,
    build_shenzhen_like,
    default_dataset,
)
from repro.network import RoadNetwork, grid_city, resegment
from repro.preprocessing import PreprocessingPipeline
from repro.spatial.geometry import Point
from repro.trajectory import (
    SpeedProfile,
    TaxiFleetGenerator,
    TrajectoryDatabase,
    day_time,
)

__version__ = "1.0.0"

__all__ = [
    "ReachabilityClient",
    "Request",
    "Response",
    "QueryOptions",
    "Router",
    "RouteDecision",
    "as_client",
    "ReachabilityEngine",
    "QueryService",
    "QueryPlan",
    "BatchReport",
    "SQuery",
    "MQuery",
    "QueryResult",
    "STIndex",
    "ConnectionIndex",
    "ProbabilityEstimator",
    "RoadNetwork",
    "grid_city",
    "resegment",
    "PreprocessingPipeline",
    "Point",
    "SpeedProfile",
    "TaxiFleetGenerator",
    "TrajectoryDatabase",
    "day_time",
    "ShenzhenLikeConfig",
    "ShenzhenLikeDataset",
    "build_shenzhen_like",
    "default_dataset",
    "__version__",
]
