"""The paper's cold one-call-per-query protocol over the client API.

The figure benchmarks and the tests answer single queries with these
helpers: each issues one :class:`repro.api.ReachabilityClient` send with
an explicit algorithm (a benchmark must pin what it measures — no
auto-routing) and ``reuse_regions=False``, so every call pays its own
bounding-region work.
"""

from __future__ import annotations

from repro.api import QueryOptions, Request

__all__ = ["m_query", "r_query", "s_query"]


def _cold_send(client, query, algorithm, delta_t_s, warm, direction):
    response = client.send(
        Request(
            query,
            QueryOptions(
                direction=direction,
                algorithm=algorithm,
                delta_t_s=delta_t_s,
                warm=warm,
                reuse_regions=False,
            ),
        )
    )
    return response.result


def s_query(client, query, algorithm="sqmb_tbs", delta_t_s=None, warm=False):
    """One single-location query, cold by default (the paper's protocol)."""
    return _cold_send(client, query, algorithm, delta_t_s, warm, "forward")


def m_query(client, query, algorithm="mqmb_tbs", delta_t_s=None, warm=False):
    """One multi-location query, cold by default."""
    return _cold_send(client, query, algorithm, delta_t_s, warm, "forward")


def r_query(client, query, algorithm="sqmb_tbs", delta_t_s=None, warm=False):
    """One reverse (who-can-reach-me) query, cold by default."""
    return _cold_send(client, query, algorithm, delta_t_s, warm, "reverse")
