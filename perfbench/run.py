"""End-to-end benchmark of the ``chebnet`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one real ``chebnet train`` or ``chebnet eval`` process,
started through ``launch.py``.  Load is closed-loop: one process at a time,
an iteration being one ``train`` and ``EVALS_PER_ITERATION`` ``eval``s of the
checkpoint it wrote, repeated until the next iteration would end after
``--seconds`` (at least ``MIN_ITERATIONS``).  The first iteration is a
warm-up: its operations are checked but not timed.  Times are medians over
the other iterations.  Inputs are made from ``--seed`` with the
repository's own synthesizers before timing starts, and the seed is also
passed to the CLI.  Early stopping is off, so every run trains the same
number of epochs.

Every operation's outputs are checked (see ``Checks``); a failed check
counts the operation as failed and keeps its timing sample.
With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``END_TO_END``; with ``--trace 1`` it carries the per-layer metrics of
``tracing.PER_LAYER``, from traced processes interleaved with untraced
``train`` processes that give the tracing overhead.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
REFERENCE = os.path.join(HERE, "reference.csv")

MIN_ITERATIONS = 3
# an eval process is short and its time noisy, so each train is followed by
# several; they also add set-up samples
EVALS_PER_ITERATION = 3
RUN_LIMIT_S = 170.0          # a run must end within 180 s
REL_TOL = 1e-9               # history losses against the stored reference
TRAIN_FILES = ("resolved_config.json", "metrics.txt", "confusion.csv",
               "history.csv", "fold_plan.csv", "checkpoint.bin")
DETERMINISTIC_FILES = ("metrics.txt", "confusion.csv", "history.csv",
                       "fold_plan.csv", "checkpoint.bin")

# (name, unit, better) in the order they are printed
END_TO_END = (
    ("train_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("eval_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)


# -- workloads --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple      # --set values shared by train and eval
    epochs: int

    def make_inputs(self, seed, directory):
        """Write the inputs for ``seed``; returns (extra overrides, samples)."""
        raise NotImplementedError


class SGProduct(Workload):
    PRODUCTS, DATES, WINDOW = 12, 50, 20

    def make_inputs(self, seed, directory):
        from chebnet.data import write_supplygraph_dir
        path = write_supplygraph_dir(os.path.join(directory, "supplygraph"),
                                     n_products=self.PRODUCTS,
                                     n_dates=self.DATES, seed=seed)
        samples = self.PRODUCTS * (self.DATES - self.WINDOW + 1)
        return (f"data.path={json.dumps(path)}",), samples


class DataCoCSV(Workload):
    ROWS = 20000

    def make_inputs(self, seed, directory):
        from chebnet import data
        dataset, _ = data.synth_generate(
            n_samples=self.ROWS, n_channels=len(data.DATACO_FEATURES),
            n_classes=2, separation=1.0, seed=seed)
        dataset = dataclasses.replace(dataset,
                                      channel_names=data.DATACO_FEATURES)
        path = os.path.join(directory, "transactions.csv")
        data.write_dataco_csv(dataset, path, target_column=data.DATACO_TARGET)
        return (f"data.path={json.dumps(path)}",), self.ROWS


WORKLOADS = {w.name: w for w in (
    SGProduct("sg-product", ('task="sg-product"', "model.cheb_orders=[3,3,3,3]",
                             "training.folds=2", "training.epochs=2"), 2),
    DataCoCSV("dataco-csv", ('task="dataco-risk"', "training.folds=2",
                             "training.epochs=2"), 2),
)}


# -- operations -------------------------------------------------------------


def run_op(kind, overrides, op_dir, deadline, trace=False, extra=()):
    """Run one ``chebnet`` process; returns its launcher report plus wall
    time, set-up time and captured output."""
    os.makedirs(op_dir, exist_ok=True)
    report_path = os.path.join(op_dir, f"{kind}.report.json")
    cmd = [sys.executable, LAUNCH, report_path] + (["--trace"] if trace else [])
    cmd += ["--", kind] + [a for o in overrides for a in ("--set", o)]
    cmd += list(extra)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=op_dir, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
        rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        rc, stdout, stderr = None, "", "timed out"
    wall = time.monotonic() - start
    report = {"rc": None, "setup_done": None}
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        pass                # killed before writing it: the exit code says so
    setup = report["setup_done"]
    report.update(kind=kind, exit=rc, wall=wall, stdout=stdout, stderr=stderr,
                  setup=None if setup is None else setup - start,
                  errors=[])
    if rc != 0:
        tail = stderr.strip().splitlines()[-1:] if stderr else []
        report["errors"].append(f"{kind} exited {rc}: {' '.join(tail)}")
    return report


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()]


def _confusion_total(path):
    return sum(int(v) for row in _read_csv(path)[1:] for v in row[1:])


def _digest(run_dir):
    h = hashlib.sha256()
    for name in DETERMINISTIC_FILES:
        with open(os.path.join(run_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Checks:
    """Output checks of one run.  A failed check appends to the operation's
    ``errors``; the run's first ``train`` is the baseline its later ones
    must reproduce byte for byte."""

    def __init__(self, samples, epochs, reference):
        self.samples, self.epochs, self.reference = samples, epochs, reference
        self.digest = None
        self.history = []        # final-fit history rows of the last train

    def train(self, op, run_dir):
        self.history = []
        if op["exit"] == 0:
            try:
                self._train(op["errors"], run_dir)
            except (OSError, ValueError, IndexError) as exc:
                op["errors"].append(f"unreadable train output: {exc}")

    def eval(self, op, out_dir):
        if op["exit"] == 0:
            try:
                self._eval(op["errors"], op["stdout"], out_dir)
            except (OSError, ValueError, IndexError) as exc:
                op["errors"].append(f"unreadable eval output: {exc}")

    def _train(self, errors, run_dir):
        missing = [f for f in TRAIN_FILES
                   if not os.path.isfile(os.path.join(run_dir, f))]
        if missing:
            errors.append(f"train wrote no {', '.join(missing)}")
            return
        total = _confusion_total(os.path.join(run_dir, "confusion.csv"))
        if total != self.samples:
            errors.append(f"confusion.csv sums to {total}, "
                          f"expected {self.samples}")
        plan = _read_csv(os.path.join(run_dir, "fold_plan.csv"))[1:]
        if len(plan) != self.samples:
            errors.append(f"fold_plan.csv has {len(plan)} rows, "
                          f"expected {self.samples}")
        history = _read_csv(os.path.join(run_dir, "history.csv"))[1:]
        if len(history) != self.epochs:
            errors.append(f"history.csv has {len(history)} epochs, "
                          f"expected {self.epochs}")
        if self.reference is not None:
            losses = [[float(v) for v in row[1:4]] for row in history]
            bad = [epoch for epoch, (row, ref)
                   in enumerate(zip(losses, self.reference))
                   if any(abs(got - want) > REL_TOL * abs(want)
                          for got, want in zip(row, ref))]
            if bad or len(losses) != len(self.reference):
                errors.append("history losses differ from the reference "
                              f"({len(bad)} epochs from epoch {bad[0]})"
                              if bad else "history length differs from "
                              "the reference")
        digest = _digest(run_dir)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            errors.append("train outputs differ from this run's first train")
        self.history = history

    def _eval(self, errors, stdout, out_dir):
        # eval of the final model on its training rows must report the
        # accuracy of the last epoch's eval-mode pass, exactly
        lines = [line for line in stdout.splitlines()
                 if line.startswith("accuracy ")]
        if not lines:
            errors.append("eval printed no accuracy")
            return
        accuracy = float(lines[-1].split()[1])
        if self.history and accuracy != float(self.history[-1][4]):
            errors.append(f"eval accuracy {accuracy!r} != last "
                          f"train_accuracy {self.history[-1][4]}")
        total = _confusion_total(os.path.join(out_dir, "eval_confusion.csv"))
        if total != self.samples:
            errors.append(f"eval_confusion.csv sums to {total}, "
                          f"expected {self.samples}")


# -- environment ------------------------------------------------------------


def _blas_threads():
    """Effective OpenBLAS thread count of this process, or None."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment():
    import platform

    import numpy as np
    from chebnet import kernels
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "chebnet_backend": kernels.BACKEND,
    }


# -- the run ----------------------------------------------------------------


def _reference_rows():
    return _read_csv(REFERENCE)[1:] if os.path.exists(REFERENCE) else []


def _load_reference(workload, seed):
    losses = [[float(v) for v in row[3:6]] for row in _reference_rows()
              if row[:2] == [workload, str(seed)]]
    return losses or None


def _store_reference(workload, seed, history):
    rows = [row for row in _reference_rows()
            if row[:2] != [workload, str(seed)]]
    rows += [[workload, str(seed)] + row[:4] for row in history]
    rows.sort(key=lambda r: (r[0], int(r[1]), int(r[2])))
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("workload,seed,epoch,loss_graph,loss_conv,loss_total\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def run(workload, seed, seconds, trace, work, record=False):
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    extra, samples = workload.make_inputs(seed, work)
    overrides = (f"seed={seed}", "training.early_stop=false") \
        + workload.overrides + tuple(extra)
    reference = None if record else _load_reference(workload.name, seed)

    checks = Checks(samples, workload.epochs, reference)
    ops, iterations = [], []
    loop_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        op_dir = os.path.join(work, f"it{len(iterations)}")
        run_dir = os.path.join(op_dir, "runs", "cheb")
        train_overrides = overrides + (
            f"output_dir={json.dumps(os.path.join(op_dir, 'runs'))}",)
        baseline = None
        if trace:
            baseline = run_op("train", train_overrides, op_dir, deadline)
            checks.train(baseline, run_dir)
        train = run_op("train", train_overrides, op_dir, deadline, trace)
        checks.train(train, run_dir)
        if record and checks.history:
            _store_reference(workload.name, seed, checks.history)
        out_dir = os.path.join(op_dir, "eval")
        eval_args = ("--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                     "--out", out_dir)
        evals = []
        for _ in range(1 if trace else EVALS_PER_ITERATION):
            evals.append(run_op("eval", overrides, op_dir, deadline, trace,
                                eval_args))
            checks.eval(evals[-1], out_dir)
        ops += [op for op in (baseline, train, *evals) if op is not None]
        iterations.append({"train": train, "evals": evals,
                           "baseline": baseline,
                           "wall": time.monotonic() - t0})
        print(f"iteration {len(iterations)}: train {train['wall']:.3f} s "
              f"(set-up {train['setup'] or 0:.3f} s), eval "
              + ", ".join(f"{ev['wall']:.3f} s" for ev in evals))
        shutil.rmtree(op_dir, ignore_errors=True)
        now = time.monotonic()
        typical = statistics.median(it["wall"] for it in iterations)
        if record or now + typical > deadline:
            break
        if len(iterations) >= MIN_ITERATIONS and \
                now - loop_start + typical > seconds:
            break

    failed = sum(1 for op in ops if op["errors"])
    for op in ops:
        for err in op["errors"]:
            print(f"FAILED {op['kind']}: {err}")
    result = {"attempted": len(ops), "failed": failed}
    # the first iteration fills the page cache and the bytecode cache of a
    # fresh checkout, so it is left out of the timings
    timed = iterations[1:] or iterations
    if trace:
        metrics, problems = layer_metrics(timed)
    else:
        metrics, problems = end_to_end_metrics(timed, ops, failed), []
    for problem in problems:
        print(f"FAILED trace: {problem}")
    result["correct"] = failed == 0 and not problems
    result["metrics"] = metrics
    print(f"ran {len(iterations)} iterations in "
          f"{time.monotonic() - started:.1f} s; failed {failed}/{len(ops)} "
          f"operations (failed_ratio {failed / len(ops):.4f})")
    return result


def _median(values):
    """(median, note); a metric without samples reads 0.0."""
    values = [v for v in values if v is not None]
    if not values:
        return 0.0, "no samples"
    return statistics.median(values), f"median of {len(values)}"


def end_to_end_metrics(iterations, ops, failed):
    trains = [it["train"] for it in iterations]
    evals = [ev for it in iterations for ev in it["evals"]]
    values = {
        "train_s": _median(op["wall"] for op in trains),
        "setup_s": _median(op["setup"] for op in trains + evals),
        "eval_s": _median(op["wall"] for op in evals),
        "peak_rss_mb": (max(op.get("peak_rss_mb", 0.0) for op in ops),
                        f"max of {len(ops)} processes"),
        "ok_ratio": ((len(ops) - failed) / len(ops),
                     f"{len(ops) - failed} of {len(ops)} operations ok"),
    }
    return _report(END_TO_END, values)


def layer_metrics(iterations):
    """Medians over traced iterations; counts must repeat exactly."""
    traced = [tracing.iteration_metrics(it["train"], it["evals"][0])
              for it in iterations
              if "spans" in it["train"] and "spans" in it["evals"][0]]
    problems = sorted({f"{name} not wrapped" for it in iterations
                       for op in [it["train"]] + it["evals"]
                       for name in op.get("unwrapped", [])})
    values = {}
    for name, unit, _ in tracing.PER_LAYER:
        if name == "trace.overhead_s":
            continue
        series = [m[name] for m in traced]
        if unit not in tracing.COUNT_UNITS:
            values[name] = _median(series)
            continue
        if len(set(series)) > 1:
            problems.append(f"{name} differs across traced runs: {series}")
        computed = unit in ("flop", "byte") and name != "archive.bytes"
        values[name] = (series[0] if series else 0,
                        "computed from shapes" if computed
                        else f"same in {len(series)} traced runs")
    traced_train = _median(it["train"]["wall"] for it in iterations)[0]
    untraced_train = _median(it["baseline"]["wall"] for it in iterations)[0]
    values["trace.overhead_s"] = (traced_train - untraced_train,
                                  "traced minus untraced train_s")
    return _report(tracing.PER_LAYER, values), problems


def _report(table, values):
    metrics = {}
    for name, unit, _ in table:
        value, note = values[name]
        print(f"{name:28s} {value:14.6g} {unit:6s} ({note})")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _undeclared_metrics():
    """Metrics whose (name, unit, better) differ from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {(m["name"], m["unit"], m["better"])
                for key in ("end_to_end", "per_layer") for m in spec[key]}
    return sorted(declared ^ set(END_TO_END + tracing.PER_LAYER))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's history losses as the "
                             "reference instead of checking against it")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "chebnet", "cli.py")):
        print(f"error: no chebnet sources under {SRC}", file=sys.stderr)
        return 2
    mismatch = _undeclared_metrics()
    if mismatch:
        print(f"error: BENCHMARK.json does not declare {mismatch}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    print("env " + json.dumps(environment(), sort_keys=True))
    work = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(work)
    # on SIGTERM, subprocess.run kills and reaps the running chebnet process
    # and the work directory is still removed
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), work, args.record_reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass            # another run is using it
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
