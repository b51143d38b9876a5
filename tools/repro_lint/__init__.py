"""repro-lint: AST-based invariant checkers for the repro codebase.

The linter enforces cross-cutting conventions that ordinary tests cannot
see: lock discipline around shared mutable state (RL001), the DiskStats
I/O-accounting contract (RL002), spawn-safety of serving payloads
(RL003), executor registry/router completeness (RL004), and
``__all__`` export consistency (RL005).

Usage::

    python -m tools.repro_lint src/ --format text
    python -m tools.repro_lint src/ --format json --out report.json
    python -m tools.repro_lint benchmarks/ examples/ --report-only

Inline controls (see docs/invariants.md):

``# guarded_by: <lock>``
    On a ``self.<field> = ...`` assignment in ``__init__``: declares the
    field as protected by ``self.<lock>`` (RL001).

``# repro-lint: holds=<lock>``
    On a ``def`` line (or the line above): the method is only ever
    called with ``self.<lock>`` already held (RL001).

``# repro-lint: disable=RL001[,RL002...]`` / ``disable=all``
    Suppresses findings on that line (or the statement starting there).

``# repro-lint: payload``
    On a class definition: marks a dataclass as a spawn-shipped payload
    even if its name does not end in ``Payload`` (RL003).
"""

from tools.repro_lint.core import (  # noqa: F401
    Finding,
    Project,
    Rule,
    all_rules,
    load_baseline,
    run_paths,
    write_baseline,
)

__version__ = "1.0.0"

__all__ = [
    "Finding",
    "Project",
    "Rule",
    "all_rules",
    "load_baseline",
    "run_paths",
    "write_baseline",
    "__version__",
]
