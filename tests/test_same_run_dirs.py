"""Smoke tests of tools/same_run_dirs.py on a small `lta-mock` run."""
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARGS = ["--seed", "53", "--workload", "lta-mock", "--scale", "0.25"]


def same_run_dirs(other_tree):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "same_run_dirs.py"),
                           str(other_tree), *ARGS], capture_output=True, text=True, timeout=300)


def test_checkout_matches_itself():
    proc = same_run_dirs(ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:3] for line in lines] == [["lta-mock", "part", str(k)]
                                                    for k in range(4)]
    for line in lines:
        _, _, _, ours, theirs, verdict = line.split()
        assert len(ours) == 64 and ours == theirs and verdict == "same"


def test_a_changed_run_record_is_a_mismatch(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    loop = tmp_path / "src" / "weakdap" / "loop.py"
    source = loop.read_text()
    assert "indent=2" in source
    loop.write_text(source.replace("indent=2", "indent=1"))  # run.json's layout only
    proc = same_run_dirs(tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert [line.split()[-1] for line in proc.stdout.splitlines()] == ["DIFFERENT"] * 4
    assert [line.split()[-2] for line in proc.stdout.splitlines()] == ["run.json"] * 4
