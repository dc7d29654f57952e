"""One workload process: import openchain, load the configs, run the CLI calls.

usage: python3 worker.py PLAN.json REPORT.json

The plan names the source tree to import openchain from, the INI configs,
the argument lists passed to ``openchain.cli.main`` and whether to trace.
The report holds the monotonic time at which set-up ended (import plus
config load), the exit code and duration of each call, the run's wall time
and peak resident memory, and, when traced, each layer's self time and
call count. Only the standard library is imported before openchain, so the
set-up time is openchain's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
import traceback
import types

#: openchain's modules; their public functions are the traced layers
MODULES = ("chains", "unitary", "lindblad", "feynman", "series", "runner", "config", "cli")

#: called once per CSV cell or path coordinate: a span there would cost more
#: than the work it times, so their time stays in the caller's self time
UNTRACED = {"series.format_real", "feynman.register_index"}

#: public methods traced as layers: span name -> (module, class, method)
METHODS = {"feynman.position_blocks": ("feynman", "BlockDensity", "position_blocks")}

#: numeric libraries whose functions are traced where openchain imports them by name
LIBRARIES = ("numpy", "scipy")


def _csv_counts(signature: inspect.Signature, args, kwargs) -> dict[str, int]:
    path, columns = list(signature.bind(*args, **kwargs).arguments.values())[:2]
    rows = len(next(iter(columns.values())))
    return {"rows": rows, "bytes": os.path.getsize(path)}


#: per-call counters read off a layer's arguments after it returns
COUNTERS = {"series.write_csv": _csv_counts}


class Tracer:
    """Spans (name, start, end, parent) around openchain's public functions.

    Installing rebinds every module attribute (and package re-export) that
    refers to a traced function, so calls between modules are seen too.
    Spans stay in memory until :meth:`write`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counters: dict[str, dict[str, int]] = {}
        self.wrapped: list[str] = []

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None
        spans, stack = self.spans, self.stack
        self.wrapped.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[me] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if count:
                totals = self.counters.setdefault(name, {})
                for key, value in count(signature, args, kwargs).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        return traced

    def install(self, package: types.ModuleType) -> None:
        by_origin: dict[int, object] = {}
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"{package.__name__}.{short}")
            except ModuleNotFoundError:  # a module a later version removed: its layers read absent
                continue
        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                origin = value.__module__ or ""
                if origin.startswith(package.__name__ + "."):
                    name = f"{origin.split('.', 1)[1]}.{value.__name__}"
                    if name in UNTRACED:
                        continue
                    if id(value) not in by_origin:
                        by_origin[id(value)] = self._wrap(name, value)
                    setattr(module, attr, by_origin[id(value)])
                elif origin.split(".")[0] in LIBRARIES:
                    setattr(module, attr, self._wrap(f"{short}.{attr}", value))
        for attr, value in list(vars(package).items()):
            if id(value) in by_origin:
                setattr(package, attr, by_origin[id(value)])
        for name, (short, cls_name, method) in METHODS.items():
            cls = getattr(modules.get(short), cls_name, None)
            fn = vars(cls).get(method) if cls is not None else None
            if isinstance(fn, types.FunctionType):
                setattr(cls, method, self._wrap(name, fn))

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time (duration minus child spans), counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child[i]
        for name, totals in self.counters.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0}).update(totals)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def main() -> int:
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    src = os.path.realpath(plan["src"])
    sys.path.insert(0, src)
    import openchain
    import openchain.cli

    if not os.path.realpath(openchain.__file__).startswith(src + os.sep):
        print(f"openchain imported from {openchain.__file__}, not from {src}", file=sys.stderr)
        return 2
    for path in plan["configs"]:
        openchain.load_config(path)
    report: dict = {"ready": time.monotonic()}
    if plan["ops"]:
        tracer = Tracer() if plan["trace"] else None
        if tracer:
            tracer.install(openchain)
        ops = []
        started = time.perf_counter()
        for argv in plan["ops"]:
            began = time.perf_counter()
            try:
                rc, error = openchain.cli.main(argv), None
            except Exception:  # the report must still say which call failed and why
                rc, error = None, traceback.format_exc()
            ops.append({"rc": rc, "seconds": time.perf_counter() - began, "error": error})
        report["run_s"] = time.perf_counter() - started
        report["ops"] = ops
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            report["layers"] = tracer.layers()
            report["wrapped"] = tracer.wrapped
            tracer.write(plan["spans"])
    with open(sys.argv[2], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
