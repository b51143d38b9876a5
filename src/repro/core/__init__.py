"""The paper's primary contribution: indexes and query processing.

Index and algorithm layers:

* :mod:`~repro.core.st_index` — the Spatio-Temporal Index (§3.2.1).
* :mod:`~repro.core.con_index` — the Connection Index (§3.2.2).
* :mod:`~repro.core.probability` — Eq. 3.1 reachability probabilities.
* :mod:`~repro.core.prob_kernel` — the columnar Eq. 3.1 kernel (packed
  visit keys, batched wave evaluation) behind both estimators.
* :mod:`~repro.core.sqmb` — Algorithm 1 (s-query max/min bounding region).
* :mod:`~repro.core.tbs` — Algorithm 2 (trace-back search).
* :mod:`~repro.core.mqmb` — Algorithm 3 (m-query bounding region).
* :mod:`~repro.core.baseline` — the exhaustive-search (ES) baseline and the
  naive multi-s-query baseline.
* :mod:`~repro.core.reverse` — reverse-reachability machinery.

Query-service layers (planner -> executors -> storage):

* :mod:`~repro.core.planner` — routes a query to an inspectable
  :class:`QueryPlan` (algorithm, bounding strategy, Δt slots).
* :mod:`~repro.core.executors` — the executor registry; one module per
  algorithm family, extensible via ``@register_executor``.
* :mod:`~repro.core.engine` — index-owning :class:`ReachabilityEngine`.
* :mod:`~repro.core.region_cache` — the thread-safe, service-lifetime
  bounding-region LRU shared across batches.
* :mod:`~repro.core.service` — :class:`QueryService`, owner of the
  service-lifetime caches the client pipelines execute through (the one
  query entry point is :mod:`repro.api`).
* :mod:`~repro.core.explain` — ``EXPLAIN``-style plan + cost rendering.
* :mod:`~repro.core.legacy_expansion` /
  :mod:`~repro.core.legacy_probability` — pre-kernel reference
  implementations (equivalence tests and benchmark baselines).
"""

from repro.core.query import (
    BoundingRegion,
    MQuery,
    QueryCost,
    QueryResult,
    SQuery,
)
from repro.core.st_index import STIndex
from repro.core.con_index import ConnectionIndex, FrontierEntry
from repro.core.probability import ProbabilityEstimator
from repro.core.sqmb import sqmb_bounding_region
from repro.core.tbs import trace_back_search
from repro.core.mqmb import mqmb_bounding_region
from repro.core.baseline import (
    exhaustive_search,
    exhaustive_search_pruned,
    naive_m_query,
)
from repro.core.reverse import (
    ReverseProbabilityEstimator,
    reverse_bounding_region,
)
from repro.core.executors import (
    ExecutionContext,
    ExecutionOutcome,
    execute_plan,
    executor_names,
    get_executor,
    register_executor,
)
from repro.core.planner import QueryPlan, plan_query
from repro.core.engine import ReachabilityEngine
from repro.core.region_cache import RegionCache
from repro.core.service import BatchReport, QueryService, as_service

__all__ = [
    "QueryPlan",
    "plan_query",
    "ExecutionContext",
    "ExecutionOutcome",
    "execute_plan",
    "executor_names",
    "get_executor",
    "register_executor",
    "QueryService",
    "BatchReport",
    "RegionCache",
    "as_service",
    "SQuery",
    "MQuery",
    "QueryResult",
    "QueryCost",
    "BoundingRegion",
    "STIndex",
    "ConnectionIndex",
    "FrontierEntry",
    "ProbabilityEstimator",
    "sqmb_bounding_region",
    "trace_back_search",
    "mqmb_bounding_region",
    "exhaustive_search",
    "exhaustive_search_pruned",
    "naive_m_query",
    "ReverseProbabilityEstimator",
    "reverse_bounding_region",
    "ReachabilityEngine",
]
