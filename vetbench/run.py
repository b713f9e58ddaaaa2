"""Benchmark of the vet pipeline on generated workspaces.

    python3 vetbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: vet runs from ``src/`` there, as
``python3 -m vulnvet.cli``. The benchmark generates the workload's workspace
from the seed, builds its knowledge base, and then runs passes of the same
command sequence (see ``generate.py``) with one closed-loop client: one vet
process at a time, each command after the previous one ended. One untimed
warm-up pass comes first. Every pass is checked against the generator's
known answers.

``--trace 0`` times passes for S seconds (at least three) and reports the
end-to-end metrics as medians over the passes. ``--trace 1`` alternates
untraced passes with passes whose vet processes run under the layer tracer,
and reports per-layer self times and counts as medians over the traced
passes. The last line of standard output is one JSON object with the
result. Files go to ``.vetbench/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, thread_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from vetbench import check, tracer  # noqa: E402
from vetbench.generate import WORKLOADS, generate  # noqa: E402

VETPROC = ROOT / "vetbench" / "vetproc.py"
SETUPS = 3          # set-ups per untraced run; setup_s is their median
MIN_PASSES = 3      # timed passes per run (traced runs: 4, half traced), however long
STARTUPS = 5        # `vet --version` runs per traced run
CHILD_TIMEOUT = 150  # seconds after which a vet process is killed
PROBE_LOOPS = 1500
PROBE_INTERVAL_S = 0.01
REFERENCE_PROBE_S = 0.0005  # probe() on an uncontended core of the baseline machine

STEP_METRICS = {"import_fix": "import_fix_s", "scan": "scan_s", "trace": "trace_s",
                "reach_static": "reach_static_s", "reach_combined": "reach_combined_s",
                "mitigate": "mitigate_s", "report": "report_s"}
END_TO_END = ("setup_s", "pipeline_s") + tuple(STEP_METRICS.values()) + (
    "peak_rss_mb", "ok_ops_share", "right_answers_share")
UNITS = {"peak_rss_mb": "MB", "ok_ops_share": "share", "right_answers_share": "share",
         "jx.bytes": "bytes", "workspace.bytes_written": "bytes",
         "kb.match_ratio": "ratio", "tracer.overhead_share": "ratio"}
COUNTS = ("jx.parse_calls", "jx.bytes", "jx.tokens", "constructs.count", "bom.build_calls",
          "kb.records_loaded", "kb.records_matched", "detection.classify_calls",
          "ted.calls", "ted.node_pairs", "interp.tests", "interp.steps", "interp.events",
          "traces.merge_calls", "traces.normalized_events", "callgraph.nodes",
          "callgraph.edges", "callgraph.unresolved", "callgraph.reached",
          "combined.dynamic_edges", "workspace.bytes_written")


def layer_metric(layer: str) -> str:
    """Name of a layer's self-time metric: ``jx.parse`` -> ``jx.parse_s``."""
    return layer + ("_s" if "." in layer else ".s")


PER_LAYER = tuple(layer_metric(layer) for layer in tracer.LAYERS) + COUNTS + (
    "kb.match_ratio", "cli.startup_s", "tracer.pipeline_s", "tracer.overhead_share")


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "s" if metric.endswith("_s") or metric.endswith(".s") else "count"


def probe() -> float:
    """CPU seconds a fixed string-and-dict loop takes on the current core."""
    start = thread_time()
    counts = {}
    for i in range(PROBE_LOOPS):
        key = "k%d" % (i & 511)
        counts[key] = counts.get(key, 0) + i
    return thread_time() - start


class Runner:
    """Starts one child process at a time and reads its own resource usage.

    The cores of a shared machine change speed from one second to the next,
    up to twofold, as other tenants load them, and lend time to other guests.
    So each child runs pinned to whichever core probe() finds faster just
    before it starts, and a thread pinned to the same core runs probe() every
    PROBE_INTERVAL_S while the child runs. Besides its wall time, the child's
    time is reported as its CPU time (user and system, from its own rusage)
    scaled to the reference core speed:
    ``time = cpu * mean(REFERENCE_PROBE_S / probe)`` over those samples,
    three before and one after. For vet, which runs one thread and waits for
    nothing but the page cache, that is its wall time on an idle reference
    core. CPU time spent in prepare() counts too.
    """

    def __init__(self, work: Path):
        self.work = work
        self.cpus = sorted(os.sched_getaffinity(0))
        self.env = {k: v for k, v in os.environ.items() if k != "VET_WORKSPACE"}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def run(self, cmd, cwd, prepare=None) -> dict:
        """Run cmd in cwd; prepare(), if given, runs first inside the timing."""
        speeds = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speeds[cpu] = [probe() for _ in range(3)]
        cpu = min(speeds, key=lambda c: statistics.mean(speeds[c]))
        os.sched_setaffinity(0, {cpu})  # the child and the sampler inherit the core
        samples = list(speeds[cpu])
        stop = threading.Event()

        def sample():
            while not stop.wait(PROBE_INTERVAL_S):
                samples.append(probe())

        sampler = threading.Thread(target=sample)
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        try:
            with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
                start = perf_counter()
                sampler.start()
                try:
                    cpu_start = thread_time()
                    if prepare is not None:
                        prepare()
                    prepare_cpu = thread_time() - cpu_start
                    proc = subprocess.Popen([str(c) for c in cmd], cwd=cwd, env=self.env,
                                            stdin=subprocess.DEVNULL, stdout=out, stderr=err)
                    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
                    timer.start()
                    try:
                        _, status, usage = os.wait4(proc.pid, 0)
                        wall = perf_counter() - start
                        proc.returncode = os.waitstatus_to_exitcode(status)
                    finally:
                        timer.cancel()
                        if proc.returncode is None:
                            proc.kill()
                            proc.wait()
                finally:
                    stop.set()
                    sampler.join()
                samples.append(probe())
                scale = statistics.mean(REFERENCE_PROBE_S / t for t in samples)
                cpu_time = prepare_cpu + usage.ru_utime + usage.ru_stime
                out.seek(0)
                err.seek(0)
                return {"code": proc.returncode, "wall": wall, "time": cpu_time * scale,
                        "scale": scale, "rss_mb": usage.ru_maxrss / 1024,
                        "stdout": out.read().decode("utf-8", "replace"),
                        "stderr": err.read().decode("utf-8", "replace")}
        finally:
            os.sched_setaffinity(0, self.cpus)


class Bench:
    """Set-up and checked passes of one workload, with the tallies of
    operations attempted and failed and of outputs checked and wrong."""

    def __init__(self, name: str, seed: int, work: Path, spec=None):
        self.name, self.seed, self.work, self.spec = name, seed, work, spec
        self.runner = Runner(work)
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.wrong = 0
        self.root = None
        self.answers = None
        self.passes = 0

    def fail(self, message: str):
        self.failed += 1
        print("vetbench: failed operation: %s" % message, file=sys.stderr)

    def setup(self, index: int) -> float:
        """Generate the workspace, build its KB and index l0; returns seconds."""
        root = self.work / ("setup%d" % index)
        commands = root / "setup.json"
        generated = []

        def prepare():
            generated.append(generate(root, self.name, self.seed, self.spec))
            commands.write_text(json.dumps(generated[0]["setup"]), encoding="utf-8")

        res = self.runner.run([sys.executable, VETPROC, "--commands", commands], root / "ws",
                              prepare)
        self.attempted += 1
        if res["code"] != 0 or "Traceback" in res["stderr"]:
            self.fail("set-up exited %d: %s" % (res["code"], res["stderr"][-300:]))
        if self.root is not None:
            shutil.rmtree(self.root)
        self.root, self.answers = root, generated[0]
        return res["time"]

    def run_pass(self, traced: bool):
        """One checked pass; returns its timings, or None when it failed."""
        number = self.passes
        self.passes += 1
        steps = self.answers["steps"]
        ws = self.root / "ws"
        try:
            shutil.rmtree(ws / ".vet", ignore_errors=True)
            variant = self.answers["variant"]
            (self.root / variant["path"]).write_text(variant["texts"][number % 2],
                                                     encoding="utf-8")
            times = defaultdict(float)
            results = []
            for i, step in enumerate(steps):
                if traced:
                    cmd = [sys.executable, VETPROC, "--spans", self.root / ("spans%d.json" % i),
                           "--pass-id", number, "--"] + step["argv"]
                else:
                    cmd = [sys.executable, "-m", "vulnvet.cli"] + step["argv"]
                res = self.runner.run(cmd, ws)
                times[STEP_METRICS[step["kind"]]] += res["time"]
                times["pipeline_s"] += res["time"]
                times["pipeline_wall_s"] += res["wall"]
                results.append(res)
            times["peak_rss_mb"] = max(r["rss_mb"] for r in results)
            self.attempted += len(steps)
            bad = check.failed_ops(steps, results)
            checked, wrong, errors = check.wrong_answers(self.answers, self.root, results)
            self.checked += checked
            self.wrong += len(wrong)
            for message in wrong:
                print("vetbench: wrong answer in pass %d: %s" % (number, message),
                      file=sys.stderr)
            for message in bad + errors:
                self.fail(message)
            if traced:
                times["spans"] = [json.loads((self.root / ("spans%d.json" % i)).read_text(
                    encoding="utf-8")) for i in range(len(steps))]
                times["scales"] = [r["scale"] for r in results]
        except Exception as exc:  # the pass is counted as a failed operation
            self.attempted += 1
            self.fail("pass %d raised %s: %s" % (number, type(exc).__name__, exc))
            return None
        return None if bad or errors else times

    def startup(self) -> float:
        """Median time of `vet --version`: interpreter start and imports."""
        times = []
        for _ in range(STARTUPS):
            res = self.runner.run([sys.executable, "-m", "vulnvet.cli", "--version"], self.work)
            self.attempted += 1
            if res["code"] != 0 or not res["stdout"].startswith("vet "):
                self.fail("vet --version exited %d" % res["code"])
            times.append(res["time"])
        return statistics.median(times)


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def layer_values(traced_pass) -> tuple:
    """Per-layer self times and counts of one traced pass, and its per-command
    self times. CPU times, scaled like the command's time."""
    selfs, counts, per_command = Counter(), Counter(), []
    for data, scale in zip(traced_pass["spans"], traced_pass["scales"]):
        command_selfs = {layer: t * scale
                         for layer, t in tracer.self_times(data["spans"]).items()}
        selfs.update(command_selfs)
        counts.update(data["counts"])
        per_command.append((" ".join(data["command"]), command_selfs))
    values = {layer_metric(layer): selfs[layer] for layer in tracer.LAYERS}
    values.update((name, counts[name]) for name in COUNTS)
    loads = counts["kb.load_calls"]
    records = counts["kb.records_loaded"] / loads if loads else 0
    values["kb.match_ratio"] = counts["kb.records_matched"] / records if records else 0.0
    return values, per_command


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    if not trace:
        setups = [bench.setup(i) for i in range(SETUPS)]
    else:
        bench.setup(0)
        startup = bench.startup()
    bench.run_pass(traced=False)  # warm-up: bytecode and page cache
    plain, traced = [], []
    attempts = 0
    start = perf_counter()
    min_attempts = MIN_PASSES + 1 if trace else MIN_PASSES
    while attempts < min_attempts or perf_counter() - start < seconds:
        is_traced = trace and attempts % 2 == 1
        times = bench.run_pass(traced=is_traced)
        attempts += 1
        if times is not None:
            (traced if is_traced else plain).append(times)
    if not plain or (trace and not traced):
        raise RuntimeError("no pass completed")

    if not trace:
        metrics = {"setup_s": statistics.median(setups)}
        for name in ("pipeline_s", "peak_rss_mb") + tuple(STEP_METRICS.values()):
            metrics[name] = _median(plain, name)
        metrics["ok_ops_share"] = 1 - bench.failed / bench.attempted
        metrics["right_answers_share"] = 1 - bench.wrong / bench.checked if bench.checked else 0.0
        samples = {"setup_s": len(setups)}
        report = [(m, metrics[m], samples.get(m, len(plain))) for m in END_TO_END]
        print("  %-28s %12.4f s      median of %d, unscaled wall time"
              % ("pipeline_wall_s", _median(plain, "pipeline_wall_s"), len(plain)))
    else:
        layered = [layer_values(t) for t in traced]
        metrics = {name: statistics.median(v[0][name] for v in layered)
                   for name in layered[0][0]}
        metrics["cli.startup_s"] = startup
        metrics["tracer.pipeline_s"] = _median(traced, "pipeline_s")
        metrics["tracer.overhead_share"] = (metrics["tracer.pipeline_s"]
                                            / _median(plain, "pipeline_s"))
        report = [(m, metrics[m], len(traced)) for m in PER_LAYER]
        print("self time per command, last traced pass (top layers):")
        for command, selfs in layered[-1][1]:
            top = sorted(selfs.items(), key=lambda kv: -kv[1])[:4]
            print("  %-34s %s" % (command[:34], "  ".join("%s %.3f" % kv for kv in top)))
    for name, value, n in report:
        print("  %-28s %12.4f %-6s median of %d" % (name, value, unit_of(name), n))
    print("  %-28s %12d of %d invocations" % ("failed_ops", bench.failed, bench.attempted))
    print("  %-28s %12d of %d outputs checked" % ("wrong_answers", bench.wrong, bench.checked))
    return {name: {"value": metrics[name], "unit": unit_of(name)}
            for name in (PER_LAYER if trace else END_TO_END)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="vetbench", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "vulnvet" / "cli.py").is_file():
        print("vetbench: no vulnvet sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    work = ROOT / ".vetbench" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        print("vetbench: workload %s, seed %d, %s" % (
            args.workload, args.seed, "traced" if args.trace else "untraced"))
        metrics = measure(bench, args.seconds, bool(args.trace))
        print("  %d bytes of JX in the workspace, %d KB records"
              % (bench.answers["corpus_bytes"], len(bench.answers["setup"]) - 1))
    except RuntimeError as exc:
        print("vetbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": bench.failed == 0 and bench.wrong == 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
