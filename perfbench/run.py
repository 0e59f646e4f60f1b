"""End-to-end and per-layer benchmark of `sgdcheck run` and `sgdcheck verify`.

    python3 perfbench/run.py --workload quad-wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from `src/` and
nowhere else.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones (see README.md).

Every CLI call is one operation; it fails on a non-zero exit or when its
outputs do not pass the checks in oracle.py.
"""
import os

# Pinned before numpy is imported; child processes inherit the environment.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse
import contextlib
import gc
import io
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

END_TO_END = {
    "setup_s": "s",
    "run_wall_s": "s",
    "verify_wall_s": "s",
    "run_peak_rss_mb": "MiB",
    "verify_peak_rss_mb": "MiB",
}
PER_LAYER = {
    "config.load_s": "s",
    "config.build_s": "s",
    "objective.certify_s": "s",
    "objective.noise_block_s": "s",
    "objective.noise_values": "count",
    "objective.pointwise_gradient_s": "s",
    "objective.pointwise_gradient_calls": "count",
    "objective.gradient_rows": "count",
    "objective.audit_s": "s",
    "objective.gradient_check_s": "s",
    "objective.verify_peak_alloc_mb": "MiB",
    "schedule.validate_s": "s",
    "engine.self_s": "s",
    "engine.rep_steps": "count",
    "engine.rep_steps_per_s": "1/s",
    "engine.peak_alloc_mb": "MiB",
    "engine.noise_bytes_computed": "bytes",
    "analyzer.estimate_dn_s": "s",
    "analyzer.estimate_dn_peak_alloc_mb": "MiB",
    "analyzer.bound_sequence_s": "s",
    "analyzer.checks_s": "s",
    "analyzer.steps_checked": "count",
    "analyzer.steps_excluded": "count",
    "analyzer.descent_s": "s",
    "analyzer.product_decay_s": "s",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "cli.series_bytes": "bytes",
    "cli.run_span_s": "s",
    "cli.verify_self_s": "s",
    "cli.verify_span_s": "s",
    "cli.run_peak_alloc_mb": "MiB",
}

# Fresh interpreters launched per run for setup_s; the first one only fills
# the bytecode and file caches and is not counted.
SETUP_LAUNCHES = 15
# Timed rounds of (run, verify) per run, at least, however short --seconds is.
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The benchmark itself cannot go on (as opposed to a failed operation)."""


def import_program():
    """Import `sgdcheck` from the checkout's `src/`, refusing any other copy."""
    package = SRC / "sgdcheck"
    if not (package / "__init__.py").is_file():
        raise BenchmarkError(f"no program source at {package}")
    sys.path.insert(0, str(SRC))
    import sgdcheck.cli
    import sgdcheck.objective

    if Path(sgdcheck.__file__).resolve().parent != package.resolve():
        raise BenchmarkError(f"imported sgdcheck from {sgdcheck.__file__}, not {package}")
    return sgdcheck.cli, sgdcheck.objective


class Bench:
    def __init__(self, cli, objective, workload, work: Path):
        self.cli = cli
        self.objective = objective
        self.workload = workload
        self.work = work
        self.configs = {}
        for label in ("main", "alt"):
            path = work / f"{label}.json"
            path.write_text(json.dumps(getattr(workload, label)), encoding="utf-8")
            self.configs[label] = path
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reference: dict = {}
        self.samples: dict[str, list[float]] = {}

    # -- operations ---------------------------------------------------------

    def _record(self, what: str, code, problems: list[str]) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}"] + problems
        if problems:
            self.failed += 1
            if code == 0:
                self.correct = False
            print(f"FAILED {what}: " + "; ".join(problems), file=sys.stderr)

    def _out_dir(self, label: str) -> Path:
        out = self.work / f"out-{label}"
        out.mkdir(exist_ok=True)
        for name in ("series.csv", "report.txt"):
            (out / name).unlink(missing_ok=True)
        return out

    def _call(self, command: str, label: str, tracer=None):
        """One in-process `sgdcheck <command> <config>`; returns (exit, stdout, seconds, root)."""
        out = self._out_dir(label)
        os.environ[self.cli.ENV_OUTPUT_DIR] = str(out)
        argv = [command, str(self.configs[label])]
        stdout = io.StringIO()
        root = None
        gc.collect()
        with contextlib.redirect_stdout(stdout):
            start = time.perf_counter()
            if tracer is not None:
                root = len(tracer.spans)
                span = tracer.enter(f"cli.{command}")
            try:
                code = self.cli.main(argv)
            except Exception:  # an uncaught error is a failed operation, not a crash
                traceback.print_exc()
                code = "exception"
            finally:
                if tracer is not None:
                    tracer.exit(span)
            seconds = time.perf_counter() - start
        return code, stdout.getvalue(), seconds, root

    def _check_run(self, label: str, code, stdout: str) -> list[str]:
        if code != 0:
            return []
        out = self.work / f"out-{label}"
        try:
            series = (out / "series.csv").read_text(encoding="utf-8")
            report = (out / "report.txt").read_text(encoding="utf-8")
        except OSError as err:
            return [f"missing output: {err}"]
        config = getattr(self.workload, label)
        problems = [] if stdout == report else ["stdout differs from report.txt"]
        ref = self.reference.get(("run", label))
        if ref == (series, report):
            return problems
        problems += oracle.check_series(series, config, self.workload.expected)
        problems += oracle.check_report(report, config, self.workload.expected)
        if ref is not None:
            problems.append("outputs differ from an earlier run of the same config")
        elif not problems:
            self.reference[("run", label)] = (series, report)
        other = self.reference.get(("run", "alt" if label == "main" else "main"))
        if other is not None and series == other[0]:
            problems.append("another master_seed gave the same series.csv")
        return problems

    def _check_verify(self, label: str, code, stdout: str) -> list[str]:
        if code != 0:
            return []
        ref = self.reference.get(("verify", label))
        if ref == stdout:
            return []
        problems = oracle.check_verify_output(stdout, getattr(self.workload, label))
        if ref is not None:
            problems.append("output differs from an earlier verify of the same config")
        elif not problems:
            self.reference[("verify", label)] = stdout
        return problems

    def run_op(self, command: str, label: str, tracer=None):
        code, stdout, seconds, root = self._call(command, label, tracer)
        check = self._check_run if command == "run" else self._check_verify
        self._record(f"{command} {label}", code, check(label, code, stdout))
        return seconds, root

    def child_op(self, command: str) -> float:
        """`sgdcheck <command>` on the main config in a fresh process; returns its peak RSS."""
        out = self._out_dir("main")
        env = dict(os.environ)
        env[self.cli.ENV_OUTPUT_DIR] = str(out)
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), command, str(SRC), str(self.configs["main"])],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(f"probe {command} failed:\n{proc.stderr}")
        status = json.loads(lines[-1])
        stdout = "".join(line + "\n" for line in lines[:-1])
        check = self._check_run if command == "run" else self._check_verify
        self._record(f"{command} main (fresh process)", status["exit"],
                     check("main", status["exit"], stdout))
        return status["peak_rss_mb"]

    # -- measurements -------------------------------------------------------

    def setup_seconds(self) -> list[float]:
        times = []
        for launch in range(SETUP_LAUNCHES + 1):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), "setup", str(SRC), str(self.configs["main"])],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            if proc.returncode != 0:
                raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
            if launch > 0:
                times.append(json.loads(proc.stdout.splitlines()[-1])["ready"] - start)
        return times

    def warm_up(self) -> None:
        """Untimed calls that fill caches; the run on `alt` must differ from `main`."""
        self.run_op("run", "alt")
        self.run_op("verify", "main")

    def end_to_end(self, seconds: float) -> dict:
        setup = self.setup_seconds()
        run_rss = self.child_op("run")
        verify_rss = self.child_op("verify")
        self.warm_up()
        runs, verifies = [], []
        deadline = time.perf_counter() + seconds
        while len(runs) < MIN_ROUNDS or time.perf_counter() < deadline:
            runs.append(self.run_op("run", "main")[0])
            verifies.append(self.run_op("verify", "main")[0])
        self.samples = {"setup_s": setup, "run_wall_s": runs, "verify_wall_s": verifies}
        return {
            "setup_s": statistics.median(setup),
            "run_wall_s": statistics.median(runs),
            "verify_wall_s": statistics.median(verifies),
            "run_peak_rss_mb": run_rss,
            "verify_peak_rss_mb": verify_rss,
        }

    def per_layer(self, seconds: float) -> tuple[dict, list]:
        self.warm_up()
        series = self.work / "out-main" / "series.csv"
        rounds = []
        tree = []
        tracer = tracing.Tracer()
        restore = tracing.instrument(tracer, self.cli, self.objective)
        try:
            deadline = time.perf_counter() + seconds
            while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
                _, run_root = self.run_op("run", "main", tracer)
                metrics = tracing.run_metrics(tracer, run_root)
                text = series.read_text(encoding="utf-8") if series.exists() else ""
                metrics["cli.rows_written"] = max(text.count("\n") - 1, 0)
                metrics["cli.series_bytes"] = len(text.encode("utf-8"))
                _, verify_root = self.run_op("verify", "main", tracer)
                metrics.update(tracing.verify_metrics(tracer, verify_root))
                if not rounds:
                    tree = tracing.span_tree(tracer, run_root) + tracing.span_tree(tracer, verify_root)
                rounds.append(metrics)
                tracer.spans.clear()
        finally:
            restore()

        memory = tracing.Tracer(memory=True)
        restore = tracing.instrument(memory, self.cli, self.objective)
        tracemalloc.start()
        try:
            _, run_root = self.run_op("run", "main", memory)
            peaks = tracing.run_memory_metrics(memory, run_root)
            _, verify_root = self.run_op("verify", "main", memory)
            peaks.update(tracing.verify_memory_metrics(memory, verify_root))
        finally:
            tracemalloc.stop()
            restore()

        self.samples = {name: [r[name] for r in rounds] for name in rounds[0]}
        metrics = {name: statistics.median(values) for name, values in self.samples.items()}
        metrics.update(peaks)
        return metrics, tree


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, objective = import_program()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        bench = Bench(cli, objective, workload, work)
        if args.trace:
            values, tree = bench.per_layer(args.seconds)
            units = PER_LAYER
        else:
            values, tree = bench.end_to_end(args.seconds), []
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = set(units) - set(values)
    if missing:
        raise BenchmarkError(f"metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  samples=bench.samples, spans=tree)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8"
    )
    for name, unit in units.items():
        count = len(bench.samples.get(name, [])) or 1
        print(f"{args.workload} {name} = {values[name]:.6g} {unit} (n={count})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        sys.exit(2)
