"""In-memory spans around the program's public layer calls.

The tracer patches the functions and methods listed in :data:`HOOKS`
for the duration of a traced run.  A function imported by name is
patched in every ``repro`` module that holds it, so callers resolve the
wrapper no matter where they imported it from.  Each span records its
name, start, end, parent span and request id; spans stay in memory and
can be written out as JSON lines at the end.

A layer's self time is the duration of its spans minus the part their
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

#: (module, attribute path, span name).  The span name's first component
#: is the layer the call belongs to.
HOOKS: tuple[tuple[str, str, str], ...] = (
    ("repro.api.router", "Router.route", "api.route"),
    ("repro.core.planner", "plan_query", "api.plan"),
    ("repro.core.executors", "execute_plan", "executors.execute_plan"),
    ("repro.core.executors", "ExecutionContext.bounding_region",
     "expansion.bounding_region"),
    ("repro.core.con_index", "ConnectionIndex.entry", "expansion.con_index_entry"),
    ("repro.core.con_index", "ConnectionIndex.travel_time_vector",
     "expansion.travel_time_vector"),
    ("repro.trajectory.store", "TrajectoryDatabase.finalize",
     "trajectory.finalize"),
    ("repro.core.prob_kernel", "ColumnarEq31Estimator.probabilities",
     "probability.eval"),
    ("repro.core.prob_kernel", "ColumnarEq31Estimator.probability",
     "probability.eval"),
    ("repro.core.tbs", "trace_back_search", "probability.tbs"),
    ("repro.core.st_index", "STIndex.gather_window_columns", "st_index.gather"),
    ("repro.core.st_index", "STIndex.append_trajectories", "st_index.append"),
    ("repro.storage.pagestore", "BufferPool.get_pages", "storage.get_pages"),
    ("repro.storage.pagestore", "BufferPool.get_page", "storage.get_page"),
    ("repro.storage.pagestore", "PageStore.read_many", "storage.read_many"),
    ("repro.storage.backends.filedisk", "FileBackedDisk.commit",
     "storage.commit"),
    ("repro.serving.dispatcher", "ShardedEngine.plan_dispatch",
     "serving.plan_dispatch"),
    ("repro.serving.dispatcher", "ShardedEngine.run_batch", "serving.run_batch"),
)

#: Layers in report order; ``bench`` is the benchmark's own root span.
LAYERS = (
    "api", "executors", "expansion", "trajectory", "probability",
    "st_index", "storage", "serving",
)


class Tracer:
    """Span recorder; :meth:`install` patches, :meth:`uninstall` restores.

    ``enabled`` switches recording on and off without unpatching, so a
    run can alternate traced and untraced requests and measure the
    tracing overhead on the same request stream.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.enabled = False
        self.request = -1
        self.pages: set[int] = set()  # page ids charged through the pools
        self.dispatches: list = []  # DispatchPlan of each traced batch
        self._local = threading.local()
        self._patches: list = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for module_name, path, span_name in HOOKS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                self._patch(owner, attr, self._wrap(owner.__dict__[attr], span_name))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, span_name)
            for holder in list(sys.modules.values()):
                name = getattr(holder, "__name__", "")
                if name.startswith("repro") and getattr(holder, path, None) is original:
                    self._patch(holder, path, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, original, name: str):
        tracer = self
        # Pool charges are observed on every call (traced or not) to count
        # the distinct pages a workload touches; dispatch plans are kept
        # for the serving layer's fallback/decomposition counts.
        observe_args = {
            "storage.get_pages": tracer._observe_pages,
            "storage.get_page": tracer._observe_page,
        }.get(name)
        keep_result = name == "serving.plan_dispatch"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if observe_args is not None:
                args = observe_args(args)
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.request)
            if keep_result:
                tracer.dispatches.append(result)
            return result

        return traced

    def _observe_pages(self, args):
        pool, page_ids = args[0], list(args[1])
        self.pages.update(page_ids)
        return (pool, page_ids) + tuple(args[2:])

    def _observe_page(self, args):
        self.pages.add(args[1])
        return args

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- benchmark-side spans ----------------------------------------------

    @contextlib.contextmanager
    def root(self, request_id: int):
        """The benchmark's own span around one unit (request/batch/cycle)."""
        self.request = request_id
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append(None)
        stack = self._stack()
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            stack.pop()
            self.spans[index] = (
                "bench.unit", start, time.perf_counter_ns(), -1, request_id
            )

    # -- analysis ----------------------------------------------------------

    def summarize(self) -> dict:
        """Per-name inclusive/self time, call counts and per-layer self time.

        Inclusive time counts only the outermost span of a name, so a
        recursive or re-entrant call is not counted twice.
        """
        spans = self.spans
        child_time = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        layer_self: dict[str, int] = defaultdict(int)
        roots_ns = 0
        root_children_ns = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            own = end - start - child_time[i]
            if name == "bench.unit":
                roots_ns += end - start
                root_children_ns += child_time[i]
                continue
            self_ns[name] += own
            layer_self[name.split(".")[0]] += own
            if parent < 0 or spans[parent][0] != name:
                inclusive[name] += end - start
                calls[name] += 1
        return {
            "inclusive_ms": {k: v / 1e6 for k, v in inclusive.items()},
            "self_ms": {k: v / 1e6 for k, v in self_ns.items()},
            "calls": dict(calls),
            "layer_self_ms": {k: v / 1e6 for k, v in layer_self.items()},
            "units_ms": roots_ns / 1e6,
            "covered_ms": root_children_ns / 1e6,
        }

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
