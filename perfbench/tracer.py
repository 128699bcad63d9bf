"""Per-layer tracing for the traced benchmark run.

`Tracer.install` replaces the public functions of each mmk layer in
every module namespace that looks them up (a module that imports a
function by name holds its own reference), wraps
`scipy.optimize.linprog` as soon as scipy.optimize is imported, and adds
a `gc` callback.  `uninstall` puts everything back.  Untraced runs never
create a Tracer.

Each call into a wrapped function is a span: layer, start, end, parent
span and the operation it belongs to.  A layer's self time is its spans'
time minus the time of their wrapped children.  Spans stay in memory;
the run writes them out when it ends.  Only the standard library is
imported here, so the traced CLI shim does not move import times.
"""

from __future__ import annotations

import gc
import sys
import time

# (layer, home module, attribute, other modules that import it by name)
LAYERS = [
    ("feasibility.rows", "mmk.feasibility", "marginal_constraint_rows",
     ("mmk.transport", "mmk.case_studies")),
    ("feasibility.kellerer", "mmk.feasibility", "kellerer_check", ("mmk.transport",)),
    ("lp_core.problem", "mmk.lp_core", "LPProblem", ()),
    ("lp_core.solve", "mmk.lp_core", "solve", ()),
    ("transport", "mmk.transport", "verify_gap", ()),
    ("transport", "mmk.transport", "solve_dual", ("mmk.case_studies",)),
    ("case_studies", "mmk.case_studies", "min_mass_at_cell", ()),
    ("case_studies", "mmk.case_studies", "max_mass_at_cell", ()),
    ("cli.load_problem", "mmk.cli", "load_problem", ()),
    ("cli.main", "mmk.cli", "main", ()),
]

# Wrapped only inside traced CLI processes, so that cli.main's self time
# leaves out the library work its subcommands call.
CLI_CHILD_LAYERS = [
    ("feasibility.signed", "mmk.feasibility", "signed_uniting", ()),
    ("measures.consistency", "mmk.measures", "is_consistent", ("mmk.cli",)),
    ("measures.build", "mmk.case_studies", "build_nonstrong", ()),
    ("measures.build", "mmk.case_studies", "build_nonuniform_2x2x2", ()),
]

LINPROG = "highs.linprog"


class _LinprogHook:
    """Meta-path finder that wraps linprog once scipy.optimize is loaded."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if name != "scipy.optimize":
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            exec_module(module)
            self.tracer._wrap_linprog(module)

        spec.loader.exec_module = exec_and_wrap
        return spec


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layers = list(layers)
        self.spans = []  # (layer, start, end, parent span index or -1, op, phase)
        self.stats = {}  # phase -> layer -> [calls, total s, self s]
        self.counts = {}  # phase -> counter -> value
        self.phase = "setup"
        self.op = -1
        self.missing = {}  # layer -> home functions that no longer exist
        self.installed = False
        self._stack = []  # [span index, time of wrapped children]
        self._saved = []  # (module, attribute, original)
        self._hook = None
        self._gc_start = None

    # ------------------------------------------------------------ spans

    def _enter(self):
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _leave(self, frame, layer, start, end):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[frame[0]] = (
            layer, start, end, parent[0] if parent else -1, self.op, self.phase)
        dur = end - start
        st = self.stats.setdefault(self.phase, {}).setdefault(layer, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        if parent is not None:
            parent[1] += dur

    def _hide(self, seconds):
        """Keep the tracer's own bookkeeping out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    def count(self, name, value=1):
        counts = self.counts.setdefault(self.phase, {})
        counts[name] = counts.get(name, 0) + value

    def span(self, layer):
        return _Span(self, layer)

    def _wrapper(self, layer, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(frame, layer, start, time.perf_counter())

        traced.__wrapped__ = fn
        return traced

    def _solve_wrapper(self, fn):
        tracer = self
        traced = self._wrapper("lp_core.solve", fn)

        def solve(problem, *args, **kwargs):
            t = time.perf_counter()
            nonzeros = problem.nonzeros()
            linprog_before = tracer._linprog_calls()
            tracer._hide(time.perf_counter() - t)
            result = traced(problem, *args, **kwargs)
            t = time.perf_counter()
            tracer.count("lp_core.nonzeros_solved", nonzeros)
            if result.status == "infeasible":
                tracer.count("lp_core.infeasible_solves")
                tracer.count(
                    "highs.linprog_on_infeasible", tracer._linprog_calls() - linprog_before)
            tracer._hide(time.perf_counter() - t)
            return result

        solve.__wrapped__ = fn
        return solve

    def _linprog_calls(self):
        return sum(st.get(LINPROG, (0,))[0] for st in self.stats.values())

    # ------------------------------------------------------------ install

    def _replace(self, module, attr, new):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def _wrap_linprog(self, module):
        if self.installed and hasattr(module, "linprog"):
            self._replace(module, "linprog", self._wrapper(LINPROG, module.linprog))

    def install(self):
        """Wrap every layer whose home module is imported."""
        if self.installed:
            return
        self.installed = True
        for layer, home, attr, importers in self.layers:
            module = sys.modules.get(home)
            if module is None:
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.setdefault(layer, set()).add(f"{home}.{attr}")
                continue
            if layer == "lp_core.solve":
                wrapped = self._solve_wrapper(original)
            else:
                wrapped = self._wrapper(layer, original)
            for name in (home,) + importers:
                owner = sys.modules.get(name)
                if owner is not None and getattr(owner, attr, None) is original:
                    self._replace(owner, attr, wrapped)
        optimize = sys.modules.get("scipy.optimize")
        if optimize is not None:
            self._wrap_linprog(optimize)
        else:
            self._hook = _LinprogHook(self)
            sys.meta_path.insert(0, self._hook)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        if not self.installed:
            return
        self.installed = False
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        if self._hook is not None and self._hook in sys.meta_path:
            sys.meta_path.remove(self._hook)
        self._hook = None
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            st = self.stats.setdefault(self.phase, {}).setdefault("python.gc", [0, 0.0, 0.0])
            dur = time.perf_counter() - self._gc_start
            st[0] += 1
            st[1] += dur
            st[2] += dur
            self._gc_start = None

    # ------------------------------------------------------------ results

    def merge(self, stats, counts):
        """Add a traced child process's totals to the current phase."""
        mine = self.stats.setdefault(self.phase, {})
        for layer, (calls, total, self_s) in stats.items():
            st = mine.setdefault(layer, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        for name, value in counts.items():
            self.count(name, value)


class _Span:
    def __init__(self, tracer, layer):
        self.tracer = tracer
        self.layer = layer

    def __enter__(self):
        self.frame = self.tracer._enter()
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        self.tracer._leave(self.frame, self.layer, self.start, time.perf_counter())


def import_seconds(importtime_stderr):
    """(mmk, scipy.optimize) import seconds from `-X importtime` output.

    mmk: the cumulative times of the top-level imports of mmk and its
    submodules.  scipy.optimize: the cumulative times of the `scipy` and
    `scipy.optimize` entries wherever they occur (each occurs at most
    once in a process).
    """
    mmk_us = scipy_us = 0
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        name = parts[2].strip()
        top_level = not parts[2].startswith("  ")
        if top_level and (name == "mmk" or name.startswith("mmk.")):
            mmk_us += cumulative
        if name in ("scipy", "scipy.optimize"):
            scipy_us += cumulative
    return mmk_us / 1e6, scipy_us / 1e6
