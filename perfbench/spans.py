"""In-memory spans around calls into cdmos, installed by wrapping attributes.

Nothing in ``src/`` is edited: ``install`` replaces each target function (and
every module-level alias of it inside the ``cdmos`` package, since modules
import functions by name) with a wrapper that records one span per call.  A
target that no longer exists is skipped and reported, so its metrics are
absent rather than the run crashing.

A span is ``[name, parent_index, start, end]``; the parent is the innermost
open span when the call began (-1 at the root).  Passes are single-threaded
(``CDMOS_THREADS`` stays unset), so one stack suffices.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Dict, List

# (module, attribute path, span name)
TARGETS = [
    ("cdmos.polyring", "enumerate_basis", "polyring.enumerate_basis"),
    ("cdmos.measures", "moments", "measures.moments"),
    ("cdmos.momentmat", "localizing_matrix", "momentmat.localizing_matrix"),
    ("cdmos.orthobasis", "build_basis", "orthobasis.build_basis"),
    ("cdmos.orthobasis", "cd_kernel", "orthobasis.cd_kernel"),
    ("cdmos.sdp", "solve_sdp", "sdp.solve_sdp"),
    ("cdmos.sdp", "_nt_scaling", "sdp.nt_scaling"),
    ("cdmos.sdp", "_chol_regularized", "sdp.schur_factor"),
    ("cdmos.sdp", "_max_step", "sdp.max_step"),
    ("cdmos.sdp", "gen_eig_min", "sdp.gen_eig_min"),
    ("cdmos.hierarchy", "lower_bound", "hierarchy.lower_bound"),
    ("cdmos.hierarchy", "certify_and_extract", "hierarchy.certify_and_extract"),
    ("cdmos.hierarchy", "SosCertificate.residual", "hierarchy.residual"),
    ("cdmos.hierarchy", "upper_bound", "hierarchy.upper_bound"),
    ("cdmos.cli", "parse_problem", "cli.parse_problem"),
    ("cdmos.cli", "RunReport.to_json", "cli.to_json"),
    ("cdmos.cli", "sample_density", "cli.sample_density"),
]
SPAN_NAMES = [name for _, _, name in TARGETS]
ROOT = "cli.main"


class Recorder:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span of its own (the pass's root span)."""
        return self.wrap(fn, name)(*args)


def install(rec: Recorder) -> List[str]:
    """Wrap every target that exists; return the names of the missing ones."""
    missing = []
    for modname, path, name in TARGETS:
        mod = sys.modules.get(modname)
        owner_path, _, attr = path.rpartition(".")
        owner = mod
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(name)
            continue
        wrapped = rec.wrap(original, name)
        if owner_path:
            setattr(owner, attr, wrapped)
            continue
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("cdmos"):
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
    return missing


def aggregate(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: total time ``s`` (outermost calls only, so recursion is
    not counted twice), ``self_s`` (duration minus direct children) and
    ``calls``."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            agg["s"] += end - start
    return out
