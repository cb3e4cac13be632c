"""Check that two source trees write byte-identical loop run directories.

    python tools/same_run_dirs.py OTHER_TREE --seed 53 [--workload lta-mock] [--scale 1]

OTHER_TREE is a checkout or a `git archive` export holding `src/` and
`perfbench/`. For each benchmark workload (or the one named), each tree, in a
Python process of its own, builds the workload's datasets from the seed with
its own `perfbench/run.py` (`build`), runs one loop per dataset (`run_loop`)
and digests the run directory (`_dir_digest`) and each file in it. The
script prints one line per dataset: its name, the two digests, this
checkout's first, and `same`, or else the comma-separated relative paths
whose bytes differ or that one side lacks (`-` if there are none to name)
and `DIFFERENT`. It exits 1 if a pair differs, a dataset is missing on one
side or a loop fails (2 if OTHER_TREE holds no `perfbench/run.py`).
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Run by each tree's own interpreter; prints one JSON object:
# "<workload> part <k>" -> [run directory digest, loop error or null,
# {relative path: sha256 of the file}].
CHILD = """
import hashlib, json, sys, tempfile
from pathlib import Path
tree, seed, scale, workloads = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4:]
sys.path.insert(0, str(Path(tree) / "perfbench"))
import run
out = {}
with tempfile.TemporaryDirectory() as tmp:
    for name in workloads or list(run.WORKLOADS):
        setup = run.build(name, seed, Path(tmp) / name, scale)
        try:
            for part in range(len(setup.datasets)):
                run_dir = Path(tmp) / name / f"run{part}"
                loop = run.run_loop(setup, part, run_dir)
                digest = run._dir_digest(run_dir)[0] if loop.error is None else None
                files = {str(f.relative_to(run_dir)): hashlib.sha256(f.read_bytes()).hexdigest()
                         for f in run_dir.rglob("*") if f.is_file()} if digest else {}
                out[f"{name} part {part}"] = [digest, loop.error, files]
        finally:
            setup.close()
print(json.dumps(out))
"""


def digests(tree: Path, seed: int, scale: float, workload: str | None) -> dict:
    """The CHILD result of one tree, run without PYTHONPATH so that each tree
    imports its own `src/`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree), str(seed), str(scale),
         *([workload] if workload else [])],
        capture_output=True, text=True, env=env, cwd=tree)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other_tree", type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", help="one workload of perfbench/run.py (default: all)")
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args(argv)
    if not (args.other_tree / "perfbench" / "run.py").is_file():
        ap.error(f"{args.other_tree} holds no perfbench/run.py")
    try:
        ours = digests(ROOT, args.seed, args.scale, args.workload)
        theirs = digests(args.other_tree.resolve(), args.seed, args.scale, args.workload)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    same = True
    for key in sorted(ours.keys() | theirs.keys()):
        (a, a_err, a_files), (b, b_err, b_files) = (side.get(key, (None, "missing", {}))
                                                    for side in (ours, theirs))
        ok = a is not None and a == b
        same &= ok
        if ok:
            verdict = "same"
        else:
            differ = sorted(path for path in a_files.keys() | b_files.keys()
                            if a_files.get(path) != b_files.get(path))
            verdict = f"{','.join(differ) or '-'}  DIFFERENT"
        print(f"{key}  {a or a_err}  {b or b_err}  {verdict}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
