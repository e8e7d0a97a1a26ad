"""The benchmark tracer's contract with the package: ``perfbench/tracing.py``
wraps the functions and methods it names and reads their positional
arguments (``conv, up = args`` for ``ChebConv.backward``), so a renamed
target or an argument added positionally breaks the traced benchmark run.
One traced ``train`` in a subprocess checks both."""

import json
import os
import subprocess
import sys

from chebnet.data import write_supplygraph_dir

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAUNCH = os.path.join(ROOT, "perfbench", "launch.py")


def test_traced_train_wraps_every_target(tmp_path):
    data = write_supplygraph_dir(str(tmp_path / "supplygraph"),
                                 n_products=6, n_dates=25, seed=0)
    report = tmp_path / "train.report.json"
    overrides = ['task="sg-product"', f'data.path="{data}"',
                 "model.cheb_orders=[3,3,3,3]", "training.folds=2",
                 "training.epochs=1", f'output_dir="{tmp_path / "runs"}"']
    cmd = [sys.executable, LAUNCH, str(report), "--trace", "--", "train"]
    cmd += [arg for o in overrides for arg in ("--set", o)]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(report.read_text())
    assert result["rc"] == 0
    assert result["unwrapped"] == []
    names = {span[0] for span in result["spans"]}
    assert "layers.cheb.bwd" in names
