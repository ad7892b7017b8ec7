"""The README's library example runs as written and its configuration table
names every key a config echoes, so API or config drift fails the suite."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(example, str(README), "exec"), {})
    dra, sizes = capsys.readouterr().out.split(" ", 1)
    assert 0.0 <= float(dra) <= 1.0
    assert sizes.startswith("[")


def _flat_keys(doc: dict, prefix: str = "") -> set[str]:
    keys = set()
    for name, value in doc.items():
        path = f"{prefix}{name}"
        keys |= _flat_keys(value, f"{path}.") if isinstance(value, dict) else {path}
    return keys


def _documented_keys() -> set[str]:
    """Key paths named in the first column of the configuration table; a cell
    such as `adam.batch_size`, `adam.seed` names two, and `data.a/b` names
    `data.a` and `data.b`."""
    section = README.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for row in re.findall(r"^\| (.*?) \|", section, re.M):
        for name in re.findall(r"`([^`]+)`", row):
            head, _, tail = name.rpartition(".")
            keys |= {f"{head}.{leaf}" if head else leaf for leaf in tail.split("/")}
    return keys


def test_configuration_table_documents_every_echoed_key():
    from classdisco.config import config_to_dict
    from classdisco.dataset import CsvData, GaussianMixtureSpec, IdxData, SplitSpec
    from classdisco.engine import ExperimentConfig

    documented = _documented_keys()
    split = SplitSpec(held_out_classes=frozenset({1}))
    for data in (GaussianMixtureSpec(3, 2, 1.0, 5), IdxData("im.idx", "lb.idx"), CsvData("d.csv")):
        echoed = _flat_keys(config_to_dict(ExperimentConfig(data=data, split=split)))
        assert echoed - documented == set(), data.kind
