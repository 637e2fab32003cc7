"""The static invariant checker (`scripts/check_invariants.py`) is
itself a tier-1 gate, so it gets a self-test: clean on the real tree,
loud (file:line, exit 1) on synthetic violations."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_invariants.py"


def _run(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_real_tree_is_clean():
    proc = _run()
    assert proc.returncode == 0, proc.stderr
    assert "check_invariants: OK" in proc.stdout


def test_violations_reported_with_file_and_line(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "q = np.percentile(x, 99)\n"
        "rng = np.random.default_rng()\n"
    )
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert f"{bad}:2:" in proc.stderr  # raw percentile
    assert f"{bad}:3:" in proc.stderr  # unseeded generator
    assert "2 violation(s)" in proc.stderr


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("np.random.seed(4)\n", "np.random.seed"),
        ("r = RandomState(0)\n", "RandomState"),
        ("x = np.random.uniform(0, 1)\n", "legacy np.random"),
        ("import random\n", "stdlib random"),
        ("seed = int(time.time())\n", "wall-clock"),
    ],
)
def test_each_seeding_ban_fires(tmp_path, line, fragment):
    (tmp_path / "mod.py").write_text(line)
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert fragment in proc.stderr


def test_commented_out_calls_are_ignored(tmp_path):
    (tmp_path / "ok.py").write_text(
        "# q = np.percentile(x, 99)\n"
        "y = 1  # np.random.seed(0) would be wrong here\n"
    )
    proc = _run(str(tmp_path))
    assert proc.returncode == 0


def test_seeded_generators_pass(tmp_path):
    (tmp_path / "ok.py").write_text(
        "import numpy as np\n"
        "rng = np.random.default_rng(1234)\n"
    )
    assert _run(str(tmp_path)).returncode == 0


def test_missing_tree_exits_2(tmp_path):
    proc = _run(str(tmp_path / "nope"))
    assert proc.returncode == 2


def test_unread_import_reported_with_file_and_line(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        '"""Names path only in this docstring."""\n'
        "import json\n"
        "from os import path  # a comment naming path is no read\n"
        "from os import sep\n"
        "from os import getcwd  # noqa: F401\n"
        "from typing import Dict, Optional\n"
        '__all__ = ["sep"]\n'
        'def dump(x: "Optional[Dict[str, int]]") -> str:\n'
        "    return json.dumps(x)\n"
    )
    (tmp_path / "__init__.py").write_text("from os import sep\n")
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert f"{mod}:3: 'path' is imported and never read" in proc.stderr
    assert "1 violation(s)" in proc.stderr
