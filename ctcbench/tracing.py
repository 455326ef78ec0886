"""Traced runs: spans around every public function of every ctcsim module.

The tracer replaces each public function of ``ctcsim.<module>`` at every
place it is bound (the defining module, the package namespace, and each
module that imported it by name, such as ``cli.thresholds`` and
``counterfactual.thresholds``), plus ``BracketSchedule.tax``. Nothing under
``src/`` is edited. Spans live in flat in-memory arrays (name, start, end,
parent) and are written out once, when the run ends.
"""

from __future__ import annotations

import inspect
import json
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("params", "population", "taxmath", "classifier", "counterfactual", "stats", "cli")
METHODS = (("params", "BracketSchedule", "tax"),)
OP_SPAN = "bench.op"


def _rule_key(params):
    """Hashable identity of a rule set, whether or not ProgramParameters hashes."""
    try:
        hash(params)
        return params
    except TypeError:
        filing = tuple(sorted((s.value, fp) for s, fp in params.filing.items()))
        return (params.year, filing, params.ctc_per_child, params.actc_per_child,
                params.refund_threshold, params.refund_rate, params.phaseout_rate)


class Tracer:
    """Records spans and per-op counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self.counters: Counter = Counter()
        self._op_keys: set = set()
        self.ops = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.nested.append(1 if self._active[nid] else 0)
        self._active[nid] += 1
        self._stack.append(idx)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._active[nid] -= 1

    def wrap(self, name: str, fn, on_call=None):
        nid = self._id(name)

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, nid)

        traced.__wrapped__ = fn
        return traced

    def op(self, fn, *args):
        """Run one benchmark op inside a root span; counts per-op uniqueness."""
        self._op_keys = set()
        nid = self._id(OP_SPAN)
        idx = self._open(nid)
        try:
            return fn(*args)
        finally:
            self._close(idx, nid)
            self.counters["taxmath.thresholds.unique"] += len(self._op_keys)
            self.ops += 1

    # -- hooks that count work the span alone does not show

    def _hooks(self, ctcsim):
        sig = inspect.signature(ctcsim.taxmath.thresholds)

        def thresholds(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            self._op_keys.add((a["profile"], _rule_key(a["params"]), a["mode"]))

        def assign_bins(args, kwargs):
            bins = args[0] if args else kwargs["bins"]
            self.counters["classifier.bins_assigned"] += len(bins)

        def ols(args, kwargs):
            columns = args[0] if args else kwargs["columns"]
            y = args[1] if len(args) > 1 else kwargs["y"]
            if len(y) == len(columns):
                self.counters["stats.ols.zero_df_fits"] += 1

        return {"taxmath.thresholds": thresholds, "classifier.assign_bins": assign_bins,
                "stats.ols": ols}

    def install(self, ctcsim) -> None:
        hooks = self._hooks(ctcsim)
        modules = [m for n, m in sys.modules.items() if n == "ctcsim" or n.startswith("ctcsim.")]
        for layer in LAYERS:
            home = getattr(ctcsim, layer)
            for attr, fn in list(vars(home).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != home.__name__:
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, fn, hooks.get(name))
                for module in modules:
                    for bound_as, value in list(vars(module).items()):
                        if value is fn:
                            self._patches.append((module, bound_as, fn))
                            setattr(module, bound_as, traced)
        for layer, cls_name, method in METHODS:
            cls = getattr(getattr(ctcsim, layer), cls_name)
            fn = cls.__dict__[method]
            self._patches.append((cls, method, fn))
            setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- summaries

    def summary(self) -> dict[str, float]:
        """Per-op calls, inclusive seconds and module self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            if not self.nested[i]:
                inclusive[name] += dur[i]
            self_ns[name.split(".", 1)[0]] += dur[i] - child[i]
        ops = max(self.ops, 1)
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.s"] = inclusive[name] / 1e9 / ops
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9 / ops
        for name, value in self.counters.items():
            out[name] = value / ops
        return out

    def write(self, path: Path) -> None:
        """Spans as tab-separated rows: name id, start and end in ns from the first span, parent row.

        The first line is a JSON list of the span names the ids index.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.names) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.name[i]}\t{self.start[i] - t0}\t{self.end[i] - t0}\t{self.parent[i]}\n")


def import_times(root: Path, env: dict, repeats: int = 3) -> dict[str, float]:
    """Median `-X importtime` self time of `import ctcsim.cli`, split by package."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ctcsim.cli"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import ctcsim.cli failed: {proc.stderr[-500:]}")
        totals: Counter = Counter()
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, _, package = line[len("import time:"):].split("|")
            top = package.strip().split(".", 1)[0]
            totals["total"] += int(self_us)
            if top in ("scipy", "numpy", "ctcsim"):
                totals[top] += int(self_us)
        runs.append(totals)
    out = {}
    for key in ("total", "scipy", "numpy", "ctcsim"):
        values = sorted(r[key] for r in runs)
        out[f"import.{key}_s"] = values[len(values) // 2] / 1e6
    return out
