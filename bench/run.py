"""Seeded end-to-end benchmark of the tweetiment CLI, with a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload nb_zipf --seed 1 --seconds 20 --trace 0

The benchmark writes a seeded corpus (see corpus.py) under .bench_work/,
then drives the program as one client in a closed loop: one `python3 -m
tweetiment` subprocess at a time, each started only after the previous one
exits.  The program sees only the CSV and lexicon files.

--trace 0 repeats cycles of `train`, `predict`, two `eval --baseline-lexicon`
and a one-tweet `predict` call until --seconds have passed (at least two
cycles), and reports the end-to-end metrics over all cycles.  A short
fixed loop timed between calls tracks the host's speed, and each call's
time is scaled to a fixed reference speed before the medians.  Each child
starts from a small launcher process, so its peak RSS is its own.  An untraced
in-process predict and eval with the first cycle's model then gives the
reference labels.
--trace 1 runs one such cycle, then alternates untraced and traced
in-process passes of train, predict and eval (pipeline.py) for --seconds,
and reports the per-layer metrics of the median traced pass.  Its spans go
to .bench_work/trace-<workload>-<seed>.json.

Output checks, each counted as an operation next to each CLI call:
every CLI call exits 0; every model file of the run equals the first
CLI model except for the trained_at line; each predict call's labels equal
the in-process artifact_predict labels, and so does each one-tweet
predict; each eval reports the accuracy those labels give; MaxEnt trains
run exactly the pinned updates; with --trace 1, the in-process MaxEnt
log-likelihood never decreases.  The last line of stdout is one JSON
object, and the exit code is 1 when a check failed.  Without the program
under src/, or when a CLI call outlives the run's deadline, the run exits
non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import re
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(SRC))
try:
    import pipeline
    import tweetiment
except ImportError as error:
    sys.exit(f"error: cannot import the program from {SRC}: {error}")
from corpus import WORKLOADS, Workload, generate, input_properties, write_files

#: End-to-end metrics: unit.  Directions and bounds are in BENCHMARK.json.
END_TO_END = {
    "train_tweets_per_s": "tweets/s",
    "predict_tweets_per_s": "tweets/s",
    "eval_tweets_per_s": "tweets/s",
    "setup_s": "s",
    "train_peak_rss_mib": "MiB",
    "predict_peak_rss_mib": "MiB",
    "accuracy": "fraction",
}

#: Per-layer metrics: (unit, the end-to-end metric it should move, and where).
PER_LAYER = {
    "cli.import_s": ("s", "setup_s, all workloads"),
    "dataio.parse_us_per_tweet": ("us", "all three throughputs, a small share"),
    "normalize.us_per_tweet": (
        "us",
        "predict and eval throughput everywhere; train throughput on nb_zipf and gis_longtail",
    ),
    "normalize.distinct_word_share": ("fraction", "input property a normalize cache depends on"),
    "normalize.empty_tweets": ("count", "tweets that normalized to nothing"),
    "features.build_vocabulary_s": ("s", "train throughput and RSS, mostly gis_longtail"),
    "features.distinct_bigrams": ("count", "train throughput and RSS, mostly gis_longtail"),
    "features.vectorize_us_per_doc": ("us", "train and predict throughput"),
    "features.oov_token_rate": ("fraction", "useful work at predict time"),
    "features.empty_docs": ("count", "predict docs with no in-vocabulary feature"),
    "models.naive_bayes.train_s": ("s", "train throughput on nb_zipf"),
    "models.naive_bayes.predict_us_per_doc": ("us", "predict and eval throughput on nb_zipf"),
    "models.maxent.iis_s_per_iter": ("s", "train throughput on maxent_iis"),
    "models.maxent.gis_s_per_iter": ("s", "train throughput on gis_longtail"),
    "models.maxent.iterations": ("count", "pinned by the workload"),
    "models.maxent.final_log_likelihood": ("nats", "training fit"),
    "models.maxent.nnz": ("count", "model size"),
    "models.maxent.predict_us_per_doc": (
        "us",
        "predict and eval throughput on maxent_iis and gis_longtail",
    ),
    "models.baseline.classify_us_per_doc": ("us", "eval throughput"),
    "serialize.write_s": ("s", "train throughput"),
    "serialize.read_s": ("s", "setup_s, largest on nb_zipf"),
    "serialize.model_bytes": ("bytes", "setup_s, largest on nb_zipf"),
    "evaluation.report_s": ("s", "eval throughput"),
    "trace.overhead_s": ("s", "traced minus untraced in-process passes"),
}

_MIN_CYCLES = 2  # two train calls, for the model-equality check
#: Eval calls are the shortest throughput calls; at one per cycle their
#: figure spread most across runs.
_EVALS_PER_CYCLE = 2
_DEADLINE_S = 170  # a run must end within 180 s
_TRAINED_AT = "meta\ttrained_at\t"
_UPDATES_RE = re.compile(r"after (\d+) updates")
_PROBE_LOOPS = 700_000  # arithmetic steps of the host probe
_PROBE_TABLE = 1 << 21  # entries of the probe's pointer-chasing list, about 70 MB
_PROBE_HOPS = 400_000
#: HostProbe() seconds at full speed on the 2-vCPU Xeon host of the figures
#: in CHANGES.md; when the host is busy it takes up to 1.7x as long.
_PROBE_REFERENCE_S = 0.085


class Ledger:
    """Counts operations (CLI calls and output checks) and their failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class Call:
    """One finished CLI subprocess."""

    argv: list
    code: int
    wall_s: float
    peak_rss_mib: float
    output: str
    probes: tuple  # HostProbe() seconds just before and just after the call

    @property
    def probe_s(self) -> float:
        return statistics.mean(self.probes)

    @property
    def adjusted_s(self) -> float:
        """Wall time at the host speed where HostProbe() takes _PROBE_REFERENCE_S."""
        return self.wall_s * _PROBE_REFERENCE_S / self.probe_s


#: Runs argv[2:] with stdout and stderr to the file argv[1], then prints
#: [exit code, wall seconds from spawn to exit, peak RSS in KiB].  A child's
#: ru_maxrss starts at the RSS of the process that spawned it (the exec
#: keeps the high-water mark of the memory it replaces), and the benchmark's
#: own process holds the corpus and the probe's list, over 100 MiB.  This
#: launcher is about 10 MiB, below any tweetiment process.  It reads its
#: child's own rusage (os.wait4): RUSAGE_CHILDREN would report the largest
#: child so far.
_LAUNCHER = """
import json, os, sys, time
log, argv = sys.argv[1], sys.argv[2:]
actions = [(os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
           (os.POSIX_SPAWN_DUP2, 1, 2)]
started = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - started
print(json.dumps([os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss]))
"""
_LIBC = ctypes.CDLL(None)
_PR_SET_CHILD_SUBREAPER = 36


class HostProbe:
    """Times a fixed loop in the benchmark's own process: the host's speed now.

    On a shared host the same CLI call runs up to 1.7x slower for tens of
    seconds at a time, and its CPU time slows as much as its wall time.  The
    probe is the geometric mean of two timings: pure-Python arithmetic, which
    slows with the CPU, and a pointer chase through a list larger than the
    caches, which slows with cache and memory contention.  Over 18 rounds of
    nine kinds of CLI call, a call's wall time divided by the probes around
    it spread 0.073 of its median (IQR), against 0.145 undivided.
    """

    def __init__(self):
        order = np.random.default_rng(0).permutation(_PROBE_TABLE)
        table = np.empty(_PROBE_TABLE, dtype=np.int64)
        table[order] = np.roll(order, -1)  # one cycle through every entry
        self.table = table.tolist()

    def __call__(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(_PROBE_LOOPS):
            total += i * i % 7
        middle = time.perf_counter()
        table, j = self.table, 0
        for _ in range(_PROBE_HOPS):
            j = table[j]
        ended = time.perf_counter()
        return math.sqrt((middle - started) * (ended - middle))


class Runner:
    """Runs `python3 -m tweetiment` children one at a time under a deadline."""

    def __init__(self, work_dir: Path, deadline: float):
        self.work_dir = work_dir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "TWEETIMENT_CONFIG"}
        self.env["PYTHONPATH"] = str(SRC)
        self.probe = HostProbe()
        self.last_probe = self.probe()
        signal.signal(signal.SIGALRM, _on_alarm)
        _LIBC.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    def spawn(self, argv: list) -> Call:
        """Run argv to completion through _LAUNCHER; time it from spawn to exit.

        The launcher runs in its own process group, so a timeout kills the
        launcher and its child together; the child, orphaned, comes back to
        this process (a subreaper) to be waited for.  A host probe follows
        each call, so every call sits between two.
        """
        log = self.work_dir / "child.log"
        result = self.work_dir / "launch.json"
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(result), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        remaining = int(self.deadline - time.monotonic())
        if remaining < 1:
            raise TimeoutError("run deadline passed")
        launcher = [sys.executable, "-c", _LAUNCHER, str(log), *argv]
        pid = os.posix_spawn(sys.executable, launcher, self.env, file_actions=actions, setpgroup=0)
        signal.alarm(remaining)
        try:
            _, status = os.waitpid(pid, 0)
        except TimeoutError:
            os.killpg(pid, signal.SIGKILL)
            _wait_for_all_children()
            raise
        finally:
            signal.alarm(0)
        if status != 0:
            raise RuntimeError(f"the launcher of {argv} failed with status {status}")
        code, wall, peak_rss_kib = json.loads(result.read_text())
        before, self.last_probe = self.last_probe, self.probe()
        return Call(
            argv=argv,
            code=code,
            wall_s=wall,
            peak_rss_mib=peak_rss_kib / 1024,
            output=log.read_text(encoding="utf-8", errors="replace"),
            probes=(before, self.last_probe),
        )

    def cli(self, ledger: Ledger, *args) -> Call:
        call = self.spawn([sys.executable, "-m", "tweetiment", *map(str, args)])
        ledger.check(call.code == 0, f"exit {call.code}: {' '.join(call.argv[2:])}\n{call.output}")
        return call

    def import_seconds(self) -> float:
        return self.spawn([sys.executable, "-c", "import tweetiment"]).wall_s


def _wait_for_all_children() -> None:
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def _on_alarm(signum, frame):
    raise TimeoutError("a CLI call outlived the run deadline")


@dataclass
class Cycle:
    """The CLI calls of one train / predict / eval / setup cycle."""

    model: Path
    predictions: Path
    train: Call
    predict: Call
    evals: list  # (Call, report CSV) of the eval calls
    setups: list  # (Call, prediction CSV) of the one-tweet predict calls


def cli_cycle(runner: Runner, ledger: Ledger, workload: Workload, paths: dict, k: int) -> Cycle:
    work = runner.work_dir
    model = work / f"cli-model-{k}.txt"
    predictions = work / f"cli-predictions-{k}.csv"
    train = runner.cli(ledger, "train", paths["train"], model, *workload.train_args)
    predict = runner.cli(ledger, "predict", model, paths["predict"], predictions)
    evals = []
    for j in range(_EVALS_PER_CYCLE):
        report = work / f"cli-report-{k}-{j}.csv"
        call = runner.cli(
            ledger, "eval", model, paths["eval"],
            "--baseline-lexicon", paths["positive"], paths["negative"],
            "--report-csv", report,
        )
        evals.append((call, report))
    output = work / f"cli-one-{k}.csv"
    setups = [(runner.cli(ledger, "predict", model, paths["one"], output), output)]
    return Cycle(model, predictions, train, predict, evals, setups)


def _read_text(path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return None


def same_model(text_a: str | None, text_b: str | None) -> bool:
    """Model files equal except for the meta trained_at line."""
    if text_a is None or text_b is None:
        return False

    def strip(text):
        return [line for line in text.splitlines() if not line.startswith(_TRAINED_AT)]

    return strip(text_a) == strip(text_b)


def read_predictions(path) -> list | None:
    """(tweet_id, label) pairs of a prediction CSV, or None if unreadable."""
    text = _read_text(path)
    if text is None:
        return None
    lines = text.splitlines()
    if not lines or lines[0] != "tweet_id,sentiment":
        return None
    try:
        return [tuple(int(field) for field in line.split(",")) for line in lines[1:]]
    except ValueError:
        return None


def read_report_accuracy(path) -> float | None:
    text = _read_text(path)
    for line in (text or "").splitlines():
        if line.startswith("accuracy,"):
            return float(line.split(",", 1)[1])
    return None


def check_outputs(ledger: Ledger, workload: Workload, cycles: list, reference) -> None:
    """Compare every CLI output of the run with the in-process reference."""
    expected = [(i, int(label)) for i, label in zip(reference.predict_ids, reference.predict_labels)]
    correct = sum(p == g for p, g in zip(reference.eval_labels, reference.eval_gold))
    accuracy = correct / len(reference.eval_gold)
    ledger.check(
        reference.accuracy == accuracy, "in-process eval accuracy differs from its labels"
    )
    first_model = _read_text(cycles[0].model)
    if reference.trained:
        ledger.check(
            same_model(first_model, _read_text(reference.model_path)),
            "in-process model file differs from the CLI's",
        )
    for k, cycle in enumerate(cycles):
        if k:
            ledger.check(
                same_model(first_model, _read_text(cycle.model)),
                f"train call {k} wrote a different model",
            )
        ledger.check(
            read_predictions(cycle.predictions) == expected,
            f"predict call {k} labels differ from artifact_predict",
        )
        for _, report in cycle.evals:
            ledger.check(
                read_report_accuracy(report) == accuracy,
                f"eval call in cycle {k} reports an accuracy the predicted labels do not give",
            )
        for _, output in cycle.setups:
            ledger.check(
                read_predictions(output) == expected[:1],
                f"one-tweet predict in cycle {k} is wrong",
            )
        if workload.model == "maxent":
            updates = _UPDATES_RE.search(cycle.train.output)
            ledger.check(
                updates is not None and int(updates.group(1)) == workload.iterations,
                f"train call {k} did not run the pinned {workload.iterations} updates",
            )
    if workload.model == "maxent" and reference.trained:
        history = reference.ll_history
        ledger.check(
            len(history) - 1 == workload.iterations,
            f"maxent_train ran {len(history) - 1} updates, not {workload.iterations}",
        )
        ledger.check(
            all(b >= a for a, b in zip(history, history[1:])),
            "MaxEnt log-likelihood decreased",
        )


def measure_cli(runner: Runner, ledger: Ledger, workload: Workload, paths: dict, seconds: float) -> list:
    """CLI cycles, at least _MIN_CYCLES, for `seconds` on average.

    Another cycle starts while it is expected to end less than half a cycle
    after `seconds`.
    """
    cycles: list = []
    started = time.perf_counter()
    while True:
        cycles.append(cli_cycle(runner, ledger, workload, paths, len(cycles)))
        elapsed = time.perf_counter() - started
        if len(cycles) >= _MIN_CYCLES and elapsed + elapsed / len(cycles) / 2 > seconds:
            return cycles


def samples(cycles: list) -> dict:
    """Per-call times (s) and peak RSS (MiB) of the measured CLI calls.

    For each kind of call: `<kind>_wall_s` is the wall time, `<kind>_probe_s`
    the mean of the host probes around it, and `<kind>_s` the wall time at
    the reference host speed (Call.adjusted_s).
    """
    calls = {
        "train": [c.train for c in cycles],
        "predict": [c.predict for c in cycles],
        "eval": [call for c in cycles for call, _ in c.evals],
        "setup": [call for c in cycles for call, _ in c.setups],
    }
    timed = {}
    for kind, group in calls.items():
        timed[f"{kind}_wall_s"] = [call.wall_s for call in group]
        timed[f"{kind}_probe_s"] = [call.probe_s for call in group]
        timed[f"{kind}_s"] = [call.adjusted_s for call in group]
    timed["train_rss_mib"] = [c.train.peak_rss_mib for c in cycles]
    timed["predict_rss_mib"] = [c.predict.peak_rss_mib for c in cycles]
    return timed


def end_to_end(workload: Workload, cycles: list) -> dict:
    """Throughputs and median set-up time at the reference host speed; RSS.

    A throughput is tweets over the summed host-adjusted times (see samples)
    of all calls of its kind.  The host's speed drifts by up to 1.7x for tens
    of seconds, so wall-time figures of whole runs spread by 25% across runs;
    the wall times are printed too.
    """
    timed = samples(cycles)
    median = {name: statistics.median(values) for name, values in timed.items()}

    def per_s(tweets, times):
        return tweets * len(times) / sum(times)

    return {
        "train_tweets_per_s": per_s(workload.n_train, timed["train_s"]),
        "predict_tweets_per_s": per_s(workload.n_predict, timed["predict_s"]),
        "eval_tweets_per_s": per_s(workload.n_eval, timed["eval_s"]),
        "setup_s": median["setup_s"],
        "train_peak_rss_mib": median["train_rss_mib"],
        "predict_peak_rss_mib": median["predict_rss_mib"],
        "accuracy": read_report_accuracy(cycles[0].evals[0][1]) or 0.0,
    }


def traced_passes(workload: Workload, paths: dict, work_dir: Path, seconds: float, run_id: str):
    """Alternate untraced and traced in-process passes for `seconds`.

    Returns the median traced pass (by wall time), its tracer, every span
    recorded and the tracing overhead: median traced minus median untraced.
    """
    untraced_s: list = []
    traced: list = []
    started = time.perf_counter()
    while True:
        untraced_s.append(
            pipeline.run_pass(pipeline.Untraced(), workload, paths, work_dir, "untraced").seconds
        )
        tracer = pipeline.Tracer(f"{run_id}/{len(traced)}")
        traced.append((pipeline.run_pass(tracer, workload, paths, work_dir, "traced"), tracer))
        elapsed = time.perf_counter() - started
        if elapsed * (len(traced) + 1) / len(traced) > seconds:
            break
    traced.sort(key=lambda pair: pair[0].seconds)
    outcome, tracer = traced[len(traced) // 2]
    overhead = statistics.median(o.seconds for o, _ in traced) - statistics.median(untraced_s)
    spans = [span for _, t in traced for span in t.spans]
    return outcome, tracer, spans, overhead


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path):
    """One benchmark run.

    Returns the metrics, the ledger, the input properties, the spans and
    the CLI cycles.
    """
    deadline = time.monotonic() + _DEADLINE_S
    corpus = generate(workload, seed)
    paths = {role: Path(p) for role, p in write_files(corpus, work_dir).items()}
    properties = input_properties(corpus)
    runner = Runner(work_dir, deadline)
    ledger = Ledger()
    run_id = f"{workload.name}-{seed}"
    spans: list = []
    if not trace:
        runner.import_seconds()  # warm-up: bytecode and page cache
        cycles = measure_cli(runner, ledger, workload, paths, seconds)
        metrics = end_to_end(workload, cycles)
    else:
        imports = [runner.import_seconds() for _ in range(3)]
        cycles = [cli_cycle(runner, ledger, workload, paths, 0)]
        metrics = {"cli.import_s": statistics.median(imports)}
    try:
        if not trace:
            reference = pipeline.run_pass(
                pipeline.Untraced(), workload, paths, work_dir, "reference", cycles[0].model
            )
        else:
            reference, tracer, spans, overhead = traced_passes(
                workload, paths, work_dir, seconds, run_id
            )
            metrics.update(pipeline.layer_metrics(tracer.spans, reference))
            metrics["normalize.distinct_word_share"] = properties["distinct_word_share"]
            metrics["trace.overhead_s"] = overhead
    except Exception:  # the program failed in-process: report it, as for a CLI call
        ledger.check(False, f"in-process run failed:\n{traceback.format_exc()}")
        return metrics, ledger, properties, spans, cycles
    check_outputs(ledger, workload, cycles, reference)
    return metrics, ledger, properties, spans, cycles


def _write_trace(path: Path, spans: list) -> None:
    self_time = pipeline.self_times(spans)
    path.write_text(json.dumps({"spans": spans, "self_s": self_time}, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(tweetiment.__file__).resolve().parent != SRC / "tweetiment":
        print(f"error: tweetiment imported from {tweetiment.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK))
    try:
        metrics, ledger, properties, spans, cycles = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
    except TimeoutError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, value in properties.items():
        print(f"input {name} {value:.6g}")
    for name, values in samples(cycles).items():
        print(f"samples {name} n={len(values)} " + " ".join(f"{v:.4f}" for v in values))
    units = {name: unit for name, (unit, _) in PER_LAYER.items()} if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    if args.trace:
        trace_path = WORK / f"trace-{workload.name}-{args.seed}.json"
        _write_trace(trace_path, spans)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if ledger.failures else 0


if __name__ == "__main__":
    sys.exit(main())
