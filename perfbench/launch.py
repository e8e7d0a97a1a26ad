"""Run one ``chebnet`` command in this process and write a JSON report.

    python3 perfbench/launch.py REPORT.json [--trace] -- <chebnet arguments>

``chebnet`` is imported from ``src/`` of the checkout that holds this file.
The report holds the exit code, the CLOCK_MONOTONIC time at which
``cli.load_task_dataset`` first returned (the parent subtracts its spawn
time to get the set-up time), the row counts of that dataset and this
process's own peak RSS (``RUSAGE_SELF``, so one process's peak never leaks
into another's).  With ``--trace`` the layers are wrapped (see
``tracing.py``) and the spans go into the report too.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv):
    if len(argv) < 2 or "--" not in argv:
        print("usage: launch.py REPORT.json [--trace] -- <chebnet arguments>",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    report_path, trace = argv[0], "--trace" in argv[1:split]
    chebnet_argv = argv[split + 1:]

    sys.path.insert(0, SRC)
    import chebnet.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"chebnet imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    report = {"rc": 1, "setup_done": None, "rows": 0, "rows_dropped": 0}
    load = cli.load_task_dataset

    def timed_load(cfg):
        dataset = load(cfg)
        if report["setup_done"] is None:
            report["setup_done"] = time.monotonic()
            report["rows"] = int(dataset.n_samples)
            report["rows_dropped"] = int(dataset.n_dropped)
        return dataset

    cli.load_task_dataset = timed_load
    recorder = None
    if trace:
        import tracing
        recorder = tracing.Recorder()
        report["unwrapped"] = tracing.install(recorder)
    try:
        report["rc"] = cli.main(chebnet_argv)
    finally:
        report["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if recorder is not None:
            report["spans"] = recorder.spans
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return report["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
