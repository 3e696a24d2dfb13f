"""Outside-in tracing of sparsefit: wrap public functions, aggregate self time.

The package is not modified.  :class:`Tracer` replaces each function named in
the per-layer metrics in every module namespace that binds it (``lqa`` binds
``lla.penalized_objective`` by name, the package ``__init__`` re-exports
many), and the callbacks of the click commands, and restores the originals on
:meth:`Tracer.uninstall`.

For each wrapped function it aggregates calls, total time and self time.  Self
time is a call's duration minus the time covered by the traced calls it made;
the process is single-threaded, so child calls never overlap and their
durations simply add.  Coarse functions (:data:`SPANNED`) additionally record
one span each, with the id of the enclosing span and of the benchmark unit;
hot leaf functions (``glm.*``, ``penalty.*``, ...) are only aggregated, since
a traced ``lqa:scad`` replication makes hundreds of thousands of them.

A handful of counters are read off arguments, return values and exceptions:
solver iterations and sweeps, non-converged fits, failed path points and the
+inf cells of a cross-validation grid.
"""

import functools
import inspect
import math
import time
from collections import defaultdict

import click

#: functions that keep one span per call; everything else is only aggregated
SPANNED = frozenset({
    "sim.run_scenario", "sim.generate", "subset.enumerate_subset_fits", "tuning.cv_select",
    "lla.one_step_path", "lla.one_step", "lla.k_step", "lla.full_lla", "lqa.lqa_fit",
    "lqa.perturbed_lqa_fit", "threshold.emit_curve", "glm.load_csv", "cli.fit", "cli.path",
    "cli.cv", "cli.threshold",
})


def _iterations_counter(name):
    def count(tracer, result, exc):
        if exc is not None:
            tracer.counters[f"{name}.nonconverged"] += 1
            result = getattr(exc, "result", None)
        tracer.counters[f"{name}.iterations"] += getattr(result, "iterations", 0) or 0
    return count


def _sweeps(tracer, result, exc):
    if exc is None:
        tracer.counters["wlasso.solve_gram.sweeps"] += int(result[2])


def _path_points(tracer, result, exc):
    if exc is None:
        tracer.counters["lla.one_step_path.points"] += len(result)
        tracer.counters["lla.one_step_path.none"] += sum(r is None for r in result)


def _validation_inf(tracer, result, exc):
    if exc is None and result == math.inf:
        tracer.counters["tuning.cv_select.grid_inf"] += 1


#: every counter a hook or the cv_select wrapper can bump
COUNTER_NAMES = frozenset({
    "lqa.lqa_fit.iterations", "lqa.lqa_fit.nonconverged",
    "lqa.perturbed_lqa_fit.iterations", "lqa.perturbed_lqa_fit.nonconverged",
    "lla.full_lla.iterations", "lla.full_lla.nonconverged", "wlasso.solve_gram.sweeps",
    "lla.one_step_path.points", "lla.one_step_path.none",
    "tuning.cv_select.grid_points", "tuning.cv_select.grid_inf",
})

#: name -> hook(tracer, result, exception), called after each traced call
COUNTERS = {
    "lqa.lqa_fit": _iterations_counter("lqa.lqa_fit"),
    "lqa.perturbed_lqa_fit": _iterations_counter("lqa.perturbed_lqa_fit"),
    "lla.full_lla": _iterations_counter("lla.full_lla"),
    "wlasso.solve_gram": _sweeps,
    "lla.one_step_path": _path_points,
    "tuning.validation_loss": _validation_inf,
}


class Tracer:
    """Wraps the named functions of the ``sparsefit`` modules given to it.

    ``names`` are ``<module>.<function>`` for module functions and
    ``cli.<command>`` for the callbacks of click commands.
    """

    def __init__(self, modules, names):
        self.modules = {mod.__name__.rpartition(".")[2]: mod for mod in modules}
        self.names = sorted(set(names))
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counters = defaultdict(int)
        self.spans = []
        self.unit = None
        # each frame: [name, child_seconds, span_id]
        self._stack = []
        self._next_span = 1
        self._patched = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        """Patch every binding of each named function; raises KeyError for unknown names."""
        wrappers = {}
        for name in self.names:
            module, _, attr = name.partition(".")
            owner = self.modules[module]
            if module == "cli":
                command = getattr(owner, attr if attr != "threshold" else "threshold_cmd")
                if not isinstance(command, click.Command) or command.name != attr:
                    raise KeyError(f"{name} is not a click command")
                self._patched.append((command, "callback", command.callback))
                command.callback = self._wrap(name, command.callback)
                continue
            fn = getattr(owner, attr)
            if not inspect.isfunction(fn):
                raise KeyError(f"{name} is not a function")
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- recording ----------------------------------------------------------

    def begin_unit(self, unit_id):
        """Open the root span of one benchmark unit."""
        self.unit = unit_id
        self._stack.append(["bench.unit", 0.0, self._open_span("bench.unit")])

    def end_unit(self):
        _, _, span_id = self._stack.pop()
        self.spans[span_id - 1]["end"] = time.perf_counter()

    def _open_span(self, name):
        span_id = self._next_span
        self._next_span += 1
        parent = self._stack[-1][2] if self._stack else None
        self.spans.append({"id": span_id, "parent": parent, "unit": self.unit,
                           "name": name, "start": time.perf_counter(), "end": None})
        return span_id

    def _wrap(self, name, fn):
        stack = self._stack
        stats = self.stats[name] = [0, 0.0, 0.0]
        spanned = name in SPANNED
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:  # recursion: the outer call owns it
                return fn(*args, **kwargs)
            span_id = self._open_span(name) if spanned else (stack[-1][2] if stack else None)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                t1 = time.perf_counter()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if spanned:
                    self.spans[span_id - 1]["end"] = t1
                if counter is not None:
                    counter(self, result, exc)

        if name == "tuning.cv_select":
            return self._counting_cv_select(wrapper, fn)
        return wrapper

    def _counting_cv_select(self, traced, fn):
        """Count grid cells of cv_select, wrapping the fitter it is given."""
        sig = inspect.signature(fn)
        counters = self.counters

        @functools.wraps(fn)
        def cv_select(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            n_grid = len(bound.arguments["lambda_grid"])
            counters["tuning.cv_select.grid_points"] += n_grid * int(bound.arguments["k"])
            inner = bound.arguments["fitter"]

            def fitter(train, grid):
                try:
                    fits = inner(train, grid)
                except Exception:  # cv_select scores the whole fold +inf
                    counters["tuning.cv_select.grid_inf"] += n_grid
                    raise
                counters["tuning.cv_select.grid_inf"] += sum(f is None for f in fits)
                return fits

            bound.arguments["fitter"] = fitter
            return traced(*bound.args, **bound.kwargs)

        return cv_select

    # -- results ------------------------------------------------------------

    def per_layer(self, names):
        """Values of ``<module>.<function>.<stat>`` metrics, 0 where never called."""
        out = {}
        for metric in names:
            fn_name, _, stat = metric.rpartition(".")
            if fn_name not in self.stats:
                raise KeyError(f"{fn_name} is not a traced function")
            if stat == "calls":
                out[metric] = self.stats[fn_name][0]
            elif stat == "self_s":
                out[metric] = self.stats[fn_name][2]
            elif metric in COUNTER_NAMES:
                out[metric] = self.counters.get(metric, 0)
            else:
                raise KeyError(f"{metric} is not a traced count")
        return out

    def counts(self):
        """Every count the trace holds: calls per function and each counter."""
        out = {f"{name}.calls": s[0] for name, s in self.stats.items() if s[0]}
        out.update({k: v for k, v in self.counters.items()})
        return dict(sorted(out.items()))
