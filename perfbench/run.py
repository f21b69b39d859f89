"""seqc benchmark: closed-loop CLI workloads with oracle-checked outputs.

    python3 perfbench/run.py --workload validate-dense --seed 1 --seconds 20 --trace 0

One client in one thread calls `seqc.cli.main(argv)` in-process and
sends its next command only when the previous one has returned, as a
batch user drives the CLI.  In-process calls keep the 20-40 ms
interpreter start-up, which seqc does not control, out of the figures;
importing seqc is part of `setup_s`.  Every command's output is checked
against an answer computed without seqc (oracle.py).

Command times are also expressed in `ref` units: multiples of a fixed
pure-Python reference computation timed right before each command.  On
a shared machine whose CPU speed drifts by 10-30% over tens of seconds,
wall times of one program vary that much from run to run, while their
ratio to the reference moves by a few percent.  The bounded end-to-end
metrics use `ref` units; wall-clock figures are printed alongside and
reported by the traced run.

With `--trace 0` the end-to-end metrics are reported; with `--trace 1`
the per-layer metrics of a traced run (tracer.py), preceded by an
untraced phase of equal length that gives the tracing overhead and the
wall-clock figures.  The last line of stdout is one JSON object with
the result.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
import xml.etree.ElementTree as ET
from pathlib import Path
from time import perf_counter

import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_SAMPLES = 100  # op_p90 then has at least ten samples above it
REFERENCE_WINDOW = 5  # reference timings in the running median that scales one command


_REFERENCE_XML = "<Program>" + "".join(
    f'<Action name="a{i}" type="T{i % 7}"/>' for i in range(150)) + "</Program>"


def reference_work() -> tuple:
    """Fixed work of about 1-2 ms in the proportions seqc spends its time on:
    dict and set churn, XML parsing, JSON output."""
    table: dict[str, frozenset] = {}
    for i in range(2000):
        key = f"k{i % 97}"
        table[key] = table.get(key, frozenset()) | {i % 13}
    root = ET.fromstring(_REFERENCE_XML)
    return sorted(table), json.dumps({e.get("name"): e.get("type") for e in root}, indent=2)


def import_seqc():
    """Import seqc from the checkout's src/, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "seqc" or m.startswith("seqc.")]:
        del sys.modules[name]
    cli = importlib.import_module("seqc.cli")
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "seqc":
        raise ImportError(f"seqc was imported from {cli.__file__}, not from this checkout")
    return cli


def call(cli, command) -> tuple[float, bool]:
    """Run one command; returns its wall time and whether its output is correct.

    Each command starts with empty collector generations, as in a fresh
    CLI process; otherwise whether a full collection lands inside a
    command would depend on what ran before it.
    """
    command.prepare()
    gc.collect()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = cli.main(list(command.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:  # a traceback from seqc fails this command, not the run
            traceback.print_exc(file=sys.__stderr__)
            code = None
        elapsed = perf_counter() - start
    return elapsed, command.check(code, out.getvalue())


class Loop:
    """Closed-loop client cycling through a command pool."""

    def __init__(self, cli, commands):
        self.cli, self.commands = cli, commands
        self.samples: list[float] = []  # wall seconds per command
        self.references: list[float] = []  # reference timing taken before each command
        self.actions = 0
        self.failed = 0

    def run(self, seconds: float, min_samples: int = 0, on_command=None) -> None:
        """Whole passes over the pool until `seconds` and `min_samples` are reached."""
        deadline = perf_counter() + seconds
        while True:
            for command in self.commands:
                start = perf_counter()
                reference_work()
                self.references.append(perf_counter() - start)
                if on_command:
                    on_command()
                elapsed, ok = call(self.cli, command)
                self.samples.append(elapsed)
                self.actions += command.actions
                self.failed += not ok
            if perf_counter() >= deadline and len(self.samples) >= min_samples:
                return

    def in_ref(self) -> list[float]:
        """Each command's time over the running median of nearby reference timings."""
        refs, half = self.references, REFERENCE_WINDOW // 2
        return [t / statistics.median(refs[max(0, i - half):i + half + 1])
                for i, t in enumerate(self.samples)]

    def figures(self) -> dict:
        samples, scaled = self.samples, self.in_ref()
        return {
            "op_p50_ref": (statistics.median(scaled), "ref"),
            "op_p90_ref": (p90(scaled), "ref"),
            "actions_per_ref": (self.actions / sum(scaled), "actions/ref"),
            "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
            "op_p90_ms": (p90(samples) * 1e3, "ms"),
            "actions_per_s": (self.actions / sum(samples), "actions/s"),
            "ref_ms": (statistics.median(self.references) * 1e3, "ms"),
        }


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def setup(build, seed: int, workdir: Path):
    """Generate inputs and answers, import seqc, run one warm-up command.

    The collector is off meanwhile: set-up builds large input structures,
    and full collections landing inside it made its time vary twofold.
    """
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        commands = build(seed, workdir, ROOT)
        cli = import_seqc()
        _, ok = call(cli, commands[0])
        return perf_counter() - start, cli, commands, ok
    finally:
        gc.enable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seqc" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"perfbench: no seqc checkout at {ROOT} (src/seqc and fixtures/ needed)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".perfbench_work"
    workdir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups, warm_failures = [], 0
        for _ in range(SETUP_REPEATS):
            elapsed, cli, commands, ok = setup(WORKLOADS[args.workload], args.seed, workdir)
            setups.append(elapsed)
            warm_failures += not ok
        # Park the benchmark's own objects (inputs, answers, seqc's modules)
        # where the collector skips them, so a collection during a command
        # costs what it would in a fresh CLI process.
        gc.collect()
        gc.freeze()
        loop = Loop(cli, commands)
        if args.trace:
            shown, reported = traced_run(cli, commands, loop, args, work)
        else:
            loop.run(args.seconds, MIN_SAMPLES)
            shown = {"setup_s": (statistics.median(setups), "s"), **loop.figures(),
                     "peak_rss_mb": (peak_rss_mb(), "MB")}
            reported = ("setup_s", "op_p50_ref", "op_p90_ref", "actions_per_ref", "peak_rss_mb")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(loop.samples) + SETUP_REPEATS
    failed = loop.failed + warm_failures
    shown["failed_ratio"] = (failed / attempted, "ratio")
    for name, (value, unit) in shown.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload}: {attempted} commands, {failed} failed,"
          f" {len(loop.samples)} measured")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": shown[name][0], "unit": shown[name][1]}
                    for name in reported},
    }))
    return 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_run(cli, commands, loop: Loop, args, work: Path):
    """Half the time untraced, half traced; per-layer figures from the traced half."""
    loop.run(args.seconds / 2)
    untraced = loop.figures()
    traced = Loop(cli, commands)
    spans = tracer.Tracer()

    def next_command():
        spans.command += 1
    spans.install()
    try:
        traced.run(args.seconds / 2, on_command=next_command)
    finally:
        spans.uninstall()
    spans.write(work / f"spans-{args.workload}.tsv")
    loop.samples += traced.samples
    loop.failed += traced.failed
    units = {"_ms": "ms", "_calls": "count", "_ratio": "ratio", "_per_s": "actions/s"}
    shown = {}
    for name, value in tracer.layer_metrics(spans, len(traced.samples), traced.actions).items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        shown[name] = (value, unit)
    shown["op_p50_ms"] = untraced["op_p50_ms"]
    shown["op_p90_ms"] = untraced["op_p90_ms"]
    shown["actions_per_s"] = untraced["actions_per_s"]
    shown["ref_ms"] = untraced["ref_ms"]
    traced_figures = traced.figures()
    shown["trace.op_p50_ms"] = traced_figures["op_p50_ms"]
    shown["trace.overhead_ratio"] = (
        traced_figures["op_p50_ref"][0] / untraced["op_p50_ref"][0], "ratio")
    return shown, tuple(shown) + ("failed_ratio",)


if __name__ == "__main__":
    sys.exit(main())
