"""Seeded operation lists for the three benchmark workloads.

Every workload is a fixed multiset of CLI invocations; the seed only fixes
the order.  Keeping the multiset fixed keeps the work in a pass the same for
every seed, so runs with different seeds measure the same amount of work and
their medians can be compared.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Tuple

WORKLOADS = ("series", "oracle", "session")

# Modules each workload's ops import; setup_s times importing exactly these.
SETUP_MODULES = {
    "series": ("reglab.cli", "reglab.bigreal_periods", "reglab.exact_series",
               "reglab.regulator", "reglab.weierstrass"),
    "oracle": ("reglab.cli", "reglab.bigreal_periods", "reglab.exact_series",
               "reglab.regulator", "reglab.weierstrass", "reglab.elliptic_oracle"),
    "session": ("reglab.cli", "reglab.bigreal_periods", "reglab.exact_series",
                "reglab.regulator", "reglab.weierstrass", "reglab.gauss_manin"),
}

# series: cells of the ROADMAP grid l in {5, 7, 13} x digits in {15, 30, 100}.
# The cells at l = 7 and 13 with 100 digits (about 11 s and 20 s here) would
# dominate a pass and, alone, its noise.  l = 5 at 15 digits is left out so
# that the pass has six ops and its median is the mean of the two of similar
# size, l = 5 and 7 at 30 digits (about 1.4 s each): with seven ops the
# median would be whichever of these or l = 13 at 15 digits (1.0 s) jittered
# into the middle.
SERIES_CELLS = ((5, 30), (7, 15), (7, 30), (13, 15), (13, 30), (5, 100))
ORACLE_CELLS = ((5, 1), (5, 2), (7, 1), (7, 2))  # (l, parallelism)
SESSION_KEYS = tuple((l, d) for l in (5, 7, 11, 13) for d in (15, 30))
SESSION_REPEATS = 4  # one miss and three hits per key
SESSION_FIBERS = (1, 2, 3, 5, 7)
SESSION_PF = ((1, 1), (2, 1), (5, 2), (7, 3))  # (l, m)


class Op(NamedTuple):
    """One CLI invocation: its arguments, minus any --cache DIR."""

    args: Tuple[str, ...]
    uses_cache: bool = False

    def argv(self, cache_dir: str = "") -> List[str]:
        if self.uses_cache:
            return list(self.args) + ["--cache", cache_dir]
        return list(self.args)


def compute_args(l: int, digits: int, skip_oracle: bool = True,
                 parallelism: int = 0) -> Tuple[str, ...]:
    args = ["compute", "--l", str(l), "--digits", str(digits)]
    if skip_oracle:
        args.append("--skip-oracle")
    if parallelism:
        args += ["--parallelism", str(parallelism)]
    return tuple(args + ["--format", "json"])


def _multiset(workload: str) -> List[Op]:
    if workload == "series":
        return [Op(compute_args(l, d)) for l, d in SERIES_CELLS]
    if workload == "oracle":
        return [Op(compute_args(l, 15, skip_oracle=False, parallelism=par))
                for l, par in ORACLE_CELLS]
    if workload == "session":
        ops = [Op(compute_args(l, d), uses_cache=True)
               for l, d in SESSION_KEYS for _ in range(SESSION_REPEATS)]
        ops += [Op(("fibers", "--l", str(l))) for l in SESSION_FIBERS]
        ops += [Op(("pf", "--l", str(l), "--m", str(m))) for l, m in SESSION_PF]
        return ops
    raise ValueError("unknown workload {!r}".format(workload))


def op_list(workload: str, seed: int) -> List[Op]:
    """The workload's operations for one pass, in the order the seed fixes."""
    ops = _multiset(workload)
    random.Random(seed).shuffle(ops)
    return ops


def all_ops() -> List[Op]:
    """Every distinct operation of every workload, for recording references."""
    seen = {}
    for workload in WORKLOADS:
        for op in _multiset(workload):
            seen.setdefault(reference_name(op.args), op)
    return list(seen.values())


def reference_name(args: Tuple[str, ...]) -> str:
    """File name of an op's recorded output.

    --parallelism is left out: it must not change the output.
    """
    parts = []
    skip = False
    for a in args:
        if skip:
            skip = False
            continue
        if a == "--parallelism":
            skip = True
            continue
        parts.append(a.lstrip("-"))
    return "_".join(parts) + ".out"
