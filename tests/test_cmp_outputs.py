"""``scripts/cmp_outputs.py`` takes a git revision as its parent tree."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
    script = ROOT / "scripts" / "cmp_outputs.py"
    spec = importlib.util.spec_from_file_location("cmp_outputs", script)
    cmp_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cmp_outputs)
    tree = cmp_outputs.export("HEAD", ROOT, tmp_path / "parent")
    assert (tree / "src" / "classdisco" / "cli.py").is_file()
