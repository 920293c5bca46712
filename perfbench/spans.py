"""Span recorder and layer accounting for the benchmark.

The recorder wraps public varcap callables from outside: it rebinds each
function at every place a varcap module bound it (``varcap.sequences.
build_planar_sheet`` as well as ``varcap.mms.build_planar_sheet``, and the
``RUNNERS`` table) and puts the originals back on ``close``.  Nothing under
``src/`` is edited.

With spans on, every wrapped call records ``[layer, start, end, parent,
op]``.  After-call hooks compute work counts from public data; they run off
the clock, their time is summed in ``excluded`` and, when tracing, kept as a
``HOOK`` child span so no layer's self time includes it.
"""

from __future__ import annotations

import importlib
import re
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

HOOK = "bench.hook"


class Recorder:
    def __init__(self, spans: bool):
        self.spans_on = spans
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.excluded = 0.0
        self.counts: Counter = Counter()
        self.solves: list[dict] = []  # per graph solve, filled by a hook
        self.paused = False  # set while a hook runs: its own varcap calls are not recorded
        self._restore: list[tuple] = []

    # -- wrapping -------------------------------------------------------------

    def _wrapper(self, fn, layer: str, hook):
        rec = self

        def wrapper(*args, **kwargs):
            if rec.paused:
                return fn(*args, **kwargs)
            if rec.spans_on:
                span = [layer, 0.0, 0.0, rec.stack[-1] if rec.stack else None, rec.op]
                rec.stack.append(len(rec.spans))
                rec.spans.append(span)
                span[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    rec.stack.pop()
            else:
                result = fn(*args, **kwargs)
            if hook is not None:
                t0 = perf_counter()
                rec.paused = True
                try:
                    hook(rec, result, *args, **kwargs)
                finally:
                    rec.paused = False
                t1 = perf_counter()
                rec.excluded += t1 - t0
                if rec.spans_on:
                    rec.spans.append([HOOK, t0, t1, rec.stack[-1] if rec.stack else None, rec.op])
            return result

        return wrapper

    def wrap(self, module: str, path: str, layer: str, hook=None) -> bool:
        """Wrap ``module.path`` (a function or ``Class.method``) under ``layer``.

        Returns False, wrapping nothing, when the program has no such name,
        so a later refactor shows as a missing layer instead of a crash.
        """
        owner = importlib.import_module(module)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if isinstance(owner, type):
            raw = owner.__dict__.get(name)
            if raw is None:
                return False
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrapper(raw.__func__, layer, hook))
            else:
                new = self._wrapper(raw, layer, hook)
            setattr(owner, name, new)
            self._restore.append((setattr, owner, name, raw))
            return True
        original = getattr(owner, name, None)
        if original is None:
            return False
        wrapper = self._wrapper(original, layer, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "varcap" or mod_name.startswith("varcap.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((setattr, mod, key, original))
                elif isinstance(val, dict) and not key.startswith("__"):
                    for dkey, dval in list(val.items()):
                        if dval is original:
                            val[dkey] = wrapper
                            self._restore.append((dict.__setitem__, val, dkey, original))
        return True

    def close(self) -> None:
        while self._restore:
            setter, owner, name, original = self._restore.pop()
            setter(owner, name, original)

    # -- accounting -----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.solves.clear()
        self.excluded = 0.0

    def layer_totals(self) -> dict[str, float]:
        """Per-layer ``<layer>.s`` self time and ``<layer>.calls`` over the recorded spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (layer, start, end, _, _) in enumerate(self.spans):
            if layer == HOOK:
                continue
            out[layer + ".s"] += (end - start) - covered[k]
            out[layer + ".calls"] += 1
        return dict(out)


# -- import layer -------------------------------------------------------------

IMPORT_GROUPS = (
    ("scipy_sparse_linalg", "scipy.sparse.linalg"),
    ("scipy_integrate", "scipy.integrate"),
    ("scipy_interpolate", "scipy.interpolate"),
    ("scipy_spatial", "scipy.spatial"),
    ("numpy", "numpy"),
    ("varcap", "varcap"),
)
_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def _group_of(module: str) -> str | None:
    for group, prefix in IMPORT_GROUPS:
        if module == prefix or module.startswith(prefix + "."):
            return group
    return None


def parse_importtime(stderr: str) -> dict[str, float]:
    """Exclusive import seconds per group from ``python -X importtime`` output.

    Each module's self time goes to its own group if it names one, else to
    the nearest enclosing import that does, else to ``other``; so a scipy
    submodule first imported by varcap is charged to scipy, not varcap.
    """
    entries = []  # (depth, module, self_us) in the post-order importtime prints
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(1))))
    totals: dict[str, float] = defaultdict(float)
    # walk in reverse (pre-order), tracking the group in force at each depth
    in_force: dict[int, str] = {}
    for depth, module, self_us in reversed(entries):
        group = _group_of(module) or in_force.get(depth - 1, "other")
        in_force[depth] = group
        totals[group] += self_us * 1e-6
    totals["total"] = sum(totals.values())
    return totals


def measure_imports(python: str, env: dict, cwd: str, repeats: int) -> dict[str, float]:
    """Median over fresh interpreters of the per-group import time of ``varcap.cli``."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import varcap.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"importing varcap.cli failed: {proc.stderr[-400:]}")
        runs.append(parse_importtime(proc.stderr))
    groups = [g for g, _ in IMPORT_GROUPS] + ["other", "total"]
    return {g: statistics.median(r.get(g, 0.0) for r in runs) for g in groups}
