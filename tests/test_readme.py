"""The README's library example runs and prints what its comments say."""

import contextlib
import dataclasses
import io
import json
import pathlib
import re

from stableci.cli import load_config
from stableci.experiments import ExperimentConfig, SelectorSpec

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_its_output_comments():
    section = README.read_text().split("## Library use", 1)[1]
    lines = re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()
    # the block ends with its printed lines, each as a "# " comment
    expected = []
    while lines[-1].startswith("# "):
        expected.insert(0, lines.pop()[2:])
    assert expected
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile("\n".join(lines), str(README), "exec"), {})
    assert printed.getvalue().splitlines() == expected


def test_readme_config_block_loads_as_the_config_it_shows(tmp_path):
    # each key of the block is a field of ExperimentConfig, eta_grid too
    section = README.read_text().split("Config JSON", 1)[1]
    text = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    want = ExperimentConfig(n=100, d=20, trials=500, master_seed=7, signal=5.0,
                            active_fraction=0.15, sigma=1.0, alpha=0.1, sigma_mode="known",
                            regenerate_x_per_trial=True, eta_grid=(0.5, 1.0, 2.0, 5.0),
                            alpha_weights=None, selector=SelectorSpec(method="screen", k=3))
    assert load_config(str(path)) == want
    assert set(json.loads(text)) == {f.name for f in dataclasses.fields(ExperimentConfig)}
