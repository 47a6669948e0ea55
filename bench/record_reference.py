"""Record the output of every distinct benchmark op into bench/reference/.

    python3 bench/record_reference.py

Run it from the repository root, at the commit whose outputs are the
reference; the benchmark then fails any op whose output departs from them.
"""

from __future__ import annotations

import shutil
import sys

import harness
import workloads


def main() -> int:
    harness.REFERENCE_DIR.mkdir(exist_ok=True)
    work_dir = harness.WORK_ROOT / "record"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for op in workloads.all_ops():
            cmd = [sys.executable, "-m", "reglab.cli"] + list(op.args)
            result = harness.run_process(cmd, work_dir, 600.0)
            if result.rc != 0:
                print("error: {} exited {}: {}".format(" ".join(op.args), result.rc,
                                                      result.stderr.strip()),
                      file=sys.stderr)
                return 1
            name = workloads.reference_name(op.args)
            (harness.REFERENCE_DIR / name).write_text(result.stdout)
            print("{}  {:.2f} s".format(name, result.wall_s))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
