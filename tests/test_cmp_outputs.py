"""``scripts/cmp_outputs.py``: its parent tree and the configs it runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from classdisco import cli

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "cmp_outputs.py"


def _script():
    spec = importlib.util.spec_from_file_location("cmp_outputs", SCRIPT)
    cmp_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cmp_outputs)
    return cmp_outputs


def _in_git_checkout() -> bool:
    """Whether this checkout is the root of a git repository with a commit."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "--verify", "-q", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return False
    return str(ROOT) in proc.stdout.splitlines()


def test_a_revision_exports_its_source_tree(tmp_path):
    if not _in_git_checkout():
        pytest.skip("not a git checkout with a commit")
    tree = _script().export("HEAD", ROOT, tmp_path / "parent")
    assert (tree / "src" / "classdisco" / "cli.py").is_file()


def test_every_invocation_config_validates(tmp_path, capsys):
    runs = _script().invocations(ROOT, tmp_path)
    assert len(runs) == 18 and [name for name, _, _ in runs[-2:]] == ["csv", "idx"]
    for name, config, _ in runs:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        assert cli.main(["validate", "--config", str(path)]) == 0, capsys.readouterr().err
