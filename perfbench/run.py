"""Benchmark of openchain's command line on three workloads.

usage: python3 perfbench/run.py --workload {transport,switch,closed}
           --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: openchain is imported from
``src/`` there, never from an installed copy. The seed makes the INI
configs (the master seed of every ensemble); the program sees nothing else.

One round is one fresh worker process that imports openchain, loads the
workload's configs and calls ``openchain.cli.main`` once per operation with
``--workers 1``, into empty output directories. Rounds repeat until
``--seconds`` have passed, each round doing the same operations. After every
round the outputs are checked (``checks.py``) and deleted; an operation
fails on a non-zero exit or a failed check.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians over
the rounds of run time and peak memory, and of set-up time over the rounds
and a few set-up-only processes. ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer metrics from the traced ones
(median per round), with the tracing overhead as traced minus untraced run
time. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: one BLAS thread, set before numpy loads here and inherited by the workers:
#: with two, OpenBLAS spin-waits, and a busy neighbour on a two-core machine
#: slowed the transport round from 3 s to 57 s
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD)

import checks  # noqa: E402  (numpy must see the thread limit)

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_PROBES = 2  # set-up-only processes per run, besides one per round
RUN_BUDGET_S = 170.0  # a run, checks included, must end well within 180 s
OVERHEAD_METRIC = "trace.overhead_s"

SECTIONS = {
    "experiment": ("scenario", "seed", "ensemble_size", "output"),
    "chain": ("s", "sigma", "g"),
    "bath": ("beta", "zeta"),
    "layout": ("a", "branch"),
    "grid": ("t_max", "dt"),
}


@dataclass
class Op:
    """One CLI invocation: its config, any extra arguments, and its output check."""

    name: str
    config: dict
    check: Callable[[dict], list[str]]
    extra: list[str] = field(default_factory=list)
    command: str = "run"


def transport(seed: int) -> list[Op]:
    cfg = dict(scenario="dissipative-transport", seed=seed, ensemble_size=3, s=100, sigma=0.5,
               g=2.0, beta=1.0, zeta=0.05, t_max=1000.0, dt=1.0)
    return [Op("transport", cfg, checks.check_transport)]


def switch(seed: int) -> list[Op]:
    common = dict(seed=seed, ensemble_size=2, s=52, a=9, sigma=0.5, g=2.0, beta=1.0, zeta=0.05,
                  t_max=2000.0, dt=1.0)
    return [
        Op("classical", dict(scenario="cnot-classical", branch="U", **common), checks.check_classical),
        Op("superposed", dict(scenario="cnot-superposed", **common), checks.check_superposed),
    ]


PEAK_SIZES = [50, 100, 200, 400]


def closed(seed: int) -> list[Op]:
    localized = dict(scenario="localized", seed=seed, ensemble_size=20, s=200, sigma=0.5, g=0.0,
                     t_max=5000.0, dt=0.5)
    peak = dict(scenario="peak-scaling", seed=seed, s=PEAK_SIZES[0], sigma=0.0, g=0.0, dt=0.05)
    values = ",".join(map(str, PEAK_SIZES))
    return [
        Op("localized", localized, checks.check_localized),
        Op("peak", peak, lambda cfg: checks.check_peak_sweep(cfg, PEAK_SIZES),
           ["--vary", "s", "--values", values], "sweep"),
    ]


WORKLOADS = {"transport": transport, "switch": switch, "closed": closed}


def write_ini(path: Path, cfg: dict) -> None:
    lines = []
    for section, keys in SECTIONS.items():
        present = [k for k in keys if k in cfg]
        if present:
            lines.append(f"[{section}]")
            lines += [f"{k} = {cfg[k]}" for k in present]
    path.write_text("\n".join(lines) + "\n")


class Bench:
    def __init__(self, workload: str, seed: int):
        self.ops = WORKLOADS[workload](seed)
        self.run_dir = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.started = time.monotonic()
        self.rounds = 0
        self.failed = 0
        self.incorrect = 0

    def _spawn(self, tag: str, run_ops: bool, trace: bool) -> tuple[float, dict]:
        """Start a worker on fresh configs; return (set-up seconds, report).

        Without ``run_ops`` the worker only sets up (imports, loads configs).
        """
        work = self.run_dir / tag
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        configs, argvs = [], []
        for op in self.ops:
            path = work / f"{op.name}.ini"
            op.config["output"] = str(work / op.name)
            write_ini(path, op.config)
            configs.append(str(path))
            argvs.append([op.command, str(path), *op.extra, "--workers", "1"])
        plan = {
            "src": str(ROOT / "src"),
            "configs": configs,
            "ops": argvs if run_ops else [],
            "trace": trace,
            "spans": str(self.run_dir / f"spans-{tag}.json"),
        }
        (work / "plan.json").write_text(json.dumps(plan))
        env = {k: v for k, v in os.environ.items() if k != "OPENCHAIN_SEED"}
        timeout = RUN_BUDGET_S - (time.monotonic() - self.started)
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "plan.json"), str(work / "report.json")],
            cwd=work, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
        report = json.loads((work / "report.json").read_text())
        return report["ready"] - spawned, report

    def setup_probe(self) -> float:
        setup, _ = self._spawn("probe", False, False)
        shutil.rmtree(self.run_dir / "probe")
        return setup

    def round(self, trace: bool) -> tuple[float, dict]:
        tag = f"round{self.rounds:03d}"
        self.rounds += 1
        setup, report = self._spawn(tag, True, trace)
        for op, result in zip(self.ops, report["ops"]):
            if result["rc"] != 0:
                self.failed += 1
                print(f"{tag} {op.name}: exit {result['rc']}\n{result['error'] or ''}", file=sys.stderr)
                continue
            try:
                problems = op.check(op.config)
            except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or malformed output
                problems = [f"outputs unreadable: {exc!r}"]
            if problems:
                self.failed += 1
                self.incorrect += 1
                print(f"{tag} {op.name}: " + "\n  ".join(["check failed:", *problems]), file=sys.stderr)
        shutil.rmtree(self.run_dir / tag)
        return setup, report


def layer_value(reports: list[dict], name: str) -> tuple[float, bool]:
    """Median over traced rounds of ``<module>.<function>.<stat>``; False if not traced."""
    layer, stat = name.rsplit(".", 1)
    if not any(layer in r["wrapped"] for r in reports):
        return 0.0, False
    return statistics.median(r["layers"].get(layer, {}).get(stat, 0) for r in reports), True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it is the configs' master seed)")
    if not (ROOT / "src" / "openchain" / "__init__.py").is_file():
        print(f"no openchain source tree at {ROOT / 'src'}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = Bench(args.workload, args.seed)
    try:
        bench.setup_probe()  # untimed: compiles bytecode and warms the file cache
        setups = [bench.setup_probe() for _ in range(SETUP_PROBES)]
        deadline = time.monotonic() + args.seconds
        untraced, traced = [], []
        while time.monotonic() < deadline or not untraced or (args.trace and not traced):
            trace = bool(args.trace) and len(untraced) > len(traced)
            setup, report = bench.round(trace)
            setups.append(setup)
            (traced if trace else untraced).append(report)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        if not args.trace:
            shutil.rmtree(bench.run_dir, ignore_errors=True)

    metrics = {}
    if args.trace:
        overhead = (statistics.median(r["run_s"] for r in traced)
                    - statistics.median(r["run_s"] for r in untraced))
        for m in spec["per_layer"]:
            if m["name"] == OVERHEAD_METRIC:
                value = overhead
            else:
                value, present = layer_value(traced, m["name"])
                if not present:
                    print(f"{m['name']}: absent (no such function to trace)", file=sys.stderr)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        found = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r["run_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        metrics = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    for label, reports in (("untraced", untraced), ("traced", traced)):
        if reports:
            print(f"{label} run_s per round: " + " ".join(f"{r['run_s']:.3f}" for r in reports))
    print("setup_s samples: " + " ".join(f"{s:.3f}" for s in setups))
    print(f"rounds {bench.rounds}, operations {bench.rounds * len(bench.ops)}, failed {bench.failed}")
    print(json.dumps({
        "correct": bench.incorrect == 0,
        "attempted": bench.rounds * len(bench.ops),
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
