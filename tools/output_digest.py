"""One SHA-256 per family of CLI outputs, to check that a change keeps every byte.

Run from the root of a checkout, before and after a change, and compare the
lines; tools/output_digest.txt holds the committed ones, so

    PYTHONPATH=src python3 tools/output_digest.py > tools/output_digest.txt

leaves git with no difference when every byte is kept.

Each command runs in a fresh process.  A family's digest
covers, for each of its commands in order, the argv, the exit code, stdout and
stderr; then the name and bytes of every file its cache directory holds.  Each
family gets a fresh temporary directory, which an argv names by the token
CACHE; the directory's path is replaced by that token before hashing, so the
digests do not depend on where it was made.  The eighth family runs every
script in demos/ the same way, with the wall times two of them print
replaced by the token TIME; the families of LATER_FAMILIES follow it.
Standard library only; a full run takes about a minute.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile

ADMISSIBLE_L = [l for l in range(5, 32) if math.gcd(l, 6) == 1]
CACHE = "<cache>"  # stands for the family's temporary directory
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(os.path.join("demos", name) for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))
WALL_TIME = re.compile(rb"\b\d+\.\d+s\b")  # convergence_study's "(0.01s)", oracle_crosscheck's "in 0.3s"
TIME = b"<time>"

FAMILIES = {
    "compute json, l <= 31 x digits 10-100, checked and --skip-oracle": [
        ["compute", "--l", str(l), "--digits", str(d), "--format", "json"] + skip
        for l in ADMISSIBLE_L for d in (10, 15, 20, 30, 50, 100)
        for skip in ([], ["--skip-oracle"])],
    "compute text and csv at (5, 15), (11, 10), (13, 300)": [
        ["compute", "--l", str(l), "--digits", str(d), "--format", fmt]
        for l, d in ((5, 15), (11, 10), (13, 300)) for fmt in ("text", "csv")],
    "fibers --l 1, 2, 3, 5, 7, 13, 25, 49": [
        ["fibers", "--l", str(l)] for l in (1, 2, 3, 5, 7, 13, 25, 49)],
    "pf at (1, 1), (2, 1), (5, 2), (7, 3), (25, 3)": [
        ["pf", "--l", str(l), "--m", str(m)]
        for l, m in ((1, 1), (2, 1), (5, 2), (7, 3), (25, 3))],
    "oracle --l 5 --j 2 and selfcheck": [
        ["oracle", "--l", "5", "--j", "2"], ["selfcheck"]],
    "exit paths: unknown subcommand, bad int, unsupported l, bad j, --help": [
        ["frobnicate"], ["compute", "--l", "x"], ["compute", "--l", "9"],
        ["oracle", "--l", "5", "--j", "9"], ["compute", "--help"]],
    "compute --cache, a miss then hits, at (5, 15) json json csv and (7, 30) text text json": [
        ["compute", "--l", str(l), "--digits", str(d), "--format", fmt, "--cache", CACHE]
        for l, d, formats in ((5, 15, ("json", "json", "csv")), (7, 30, ("text", "text", "json")))
        for fmt in formats],
}
# printed after the demos, so the lines above keep their order
LATER_FAMILIES = {
    "oracle and selfcheck with --digits, and the oracle's certificate cap at l = 13": [
        ["oracle", "--l", "7", "--digits", "30"], ["oracle", "--l", "13", "--j", "12"],
        ["selfcheck", "--digits", "50"]],
    "compute json at (49, 30) and (97, 30), checked and --skip-oracle": [
        ["compute", "--l", str(l), "--digits", "30", "--format", "json"] + skip
        for l in (49, 97) for skip in ([], ["--skip-oracle"])],
    "compute --skip-oracle json at (5, 1000) and (199, 30)": [
        ["compute", "--l", str(l), "--digits", str(d), "--skip-oracle", "--format", "json"]
        for l, d in ((5, 1000), (199, 30))],
}


def _field(h, data: bytes) -> None:
    h.update(len(data).to_bytes(8, "big"))
    h.update(data)


def digest(commands, runner=("-m", "reglab.cli"), scrub=lambda data: data) -> str:
    """The family's digest, each argv run as python <runner> <argv> from ROOT, stdout through scrub."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as cache:
        token = lambda data: data.replace(cache.encode(), CACHE.encode())
        for argv in commands:
            run = subprocess.run([sys.executable, *runner] +
                                 [cache if a == CACHE else a for a in argv],
                                 capture_output=True, cwd=ROOT, check=False)
            for data in (" ".join(argv).encode(), str(run.returncode).encode(),
                         token(scrub(run.stdout)), token(run.stderr)):
                _field(h, data)
        for name in sorted(os.listdir(cache)):
            with open(os.path.join(cache, name), "rb") as fh:
                _field(h, name.encode())
                _field(h, token(fh.read()))
    return h.hexdigest()


def main() -> int:
    for name, commands in FAMILIES.items():
        print("{}  {} ({} runs)".format(digest(commands), name, len(commands)),
              flush=True)
    demos = digest([[demo] for demo in DEMOS], runner=(),
                   scrub=lambda data: WALL_TIME.sub(TIME, data))
    print("{}  demos/*.py, wall times replaced ({} runs)".format(demos, len(DEMOS)), flush=True)
    for name, commands in LATER_FAMILIES.items():
        print("{}  {} ({} runs)".format(digest(commands), name, len(commands)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
