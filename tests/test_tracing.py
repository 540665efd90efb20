"""The benchmark's span tracer still finds every name it wraps.

perfbench/tracing.py replaces module globals of stableci.cli and
stableci.experiments (and a few linmodel, noise and numpy names) by name;
a name dropped from the package makes its install fail. This test installs
and uninstalls it in-process, so that failure shows offline.
"""

import importlib
import pathlib

import numpy as np

from stableci import cli, experiments, linmodel, noise

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _namespaces():
    return {"cli": vars(cli), "experiments": vars(experiments), "linmodel": vars(linmodel),
            "RngStream": vars(noise.RngStream), "numpy.linalg": vars(np.linalg)}


def test_tracer_installs_and_leaves_no_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = {name: dict(space) for name, space in _namespaces().items()}
    try:
        tracing.install(tracing.Recorder())
        assert cli.stable_screening is not before["cli"]["stable_screening"]
        assert experiments.run_trial is not before["experiments"]["run_trial"]
    finally:
        tracing.uninstall()
    assert tracing._patches == [] and tracing._active is None
    for name, space in _namespaces().items():
        changed = [k for k in before[name] if space.get(k) is not before[name][k]]
        assert changed == [] and space.keys() == before[name].keys(), name
