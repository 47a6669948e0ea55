"""Statistics, span accounting and output checks used by the benchmark.

Nothing here starts a process; harness.py does that.
"""

from __future__ import annotations

import json
import math
from statistics import median
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ORACLE_GATE = 1e-6  # the CLI's own oracle tolerance

# About the median of harness.calibration_task in a quiet hour on a 2-vCPU
# Xeon at 2.1 GHz (Python 3.11), the machine the benchmark was defined on.
# Fixed: changing it rescales every reported time.
REFERENCE_CALIBRATION_S = 0.150


# ---------------------------------------------------------------- percentiles

def tail_percentile(n: int) -> Tuple[int, bool]:
    """Highest percentile P >= 50 with at least ten of n samples above it.

    Uses the nearest-rank definition: the P-th percentile is the sample of
    rank ceil(P n / 100), so n - ceil(P n / 100) samples lie beyond it.
    Returns (P, True), or (50, False) when n is too small for any P >= 50
    to leave ten samples beyond.  The median is then reported: a maximum of
    a handful of samples is a single op and as noisy as one.
    """
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p, True
    return 50, False


def percentile(values: Sequence[float], p: int) -> float:
    """Nearest-rank percentile."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p * len(vals) / 100))
    return vals[rank - 1]


# ---------------------------------------------------------------- spans

def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        kids = [(max(a, s["start"]), min(b, s["end"]))
                for a, b in children.get(s["id"], [])]
        covered = _union_length((a, b) for a, b in kids if b > a)
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def inclusive_time(spans: Sequence[dict], names: Iterable[str]) -> float:
    """Total duration of spans named in `names`, counting nested ones once."""
    names = set(names)
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        if s["name"] not in names:
            continue
        parent = s["parent"]
        nested = False
        while parent is not None:
            if by_id[parent]["name"] in names:
                nested = True
                break
            parent = by_id[parent]["parent"]
        if not nested:
            total += s["end"] - s["start"]
    return total


# ---------------------------------------------------------------- output checks

def _payload(stdout: str) -> dict:
    payload = json.loads(stdout)
    if not isinstance(payload, dict):
        raise ValueError("payload is not a JSON object")
    return payload


def check_output(args: Sequence[str], stdout: str, reference: str) -> Optional[str]:
    """None if an op's stdout matches its recorded reference, else the reason.

    For `compute --format json` every payload field except oracle_check must
    serialise to the same bytes as the reference, and oracle_check must be
    null under --skip-oracle and otherwise pass the CLI's 1e-6 gate.  Any
    other op's output must equal the reference byte for byte.
    """
    if not (args and args[0] == "compute" and "json" in args):
        return None if stdout == reference else "output differs from reference"
    try:
        got, want = _payload(stdout), _payload(reference)
    except ValueError as exc:
        return "unparseable payload: {}".format(exc)
    oracle = got.pop("oracle_check", None)
    want.pop("oracle_check", None)
    if set(got) != set(want):
        return "payload fields differ: {}".format(sorted(set(got) ^ set(want)))
    for key in sorted(want):
        if json.dumps(got[key], sort_keys=True) != json.dumps(want[key], sort_keys=True):
            return "field {!r} differs from reference".format(key)
    if "--skip-oracle" in args:
        if oracle is not None:
            return "oracle_check present under --skip-oracle"
        return None
    try:
        rel = float(oracle["max_rel_diff"])
    except (TypeError, KeyError, ValueError):
        return "oracle_check missing or malformed"
    if not rel <= ORACLE_GATE:
        return "oracle max_rel_diff {} above the {} gate".format(rel, ORACLE_GATE)
    return None


def route_digits(stdout: str) -> Tuple[int, float]:
    """(det_agreement_digits, digits of the weakest cross-check) of a compute payload.

    The weakest cross-check is the determinant routes' agreement, or the
    oracle's -log10(max_rel_diff) when the oracle ran and agrees less.
    """
    payload = _payload(stdout)
    det = int(payload["det_agreement_digits"])
    weakest = float(det)
    oracle = payload.get("oracle_check")
    if oracle is not None:
        rel = float(oracle["max_rel_diff"])
        weakest = min(weakest, -math.log10(rel) if rel > 0 else weakest)
    return det, weakest


# ---------------------------------------------------------------- trace files

def load_spans(path) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def parse_importtime(stderr: str) -> Tuple[float, float]:
    """(mpmath cumulative us, total us of top-level reglab imports) from -X importtime."""
    mpmath_us = 0.0
    reglab_us = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header line
        cumulative = float(parts[1])
        field = parts[2][1:]
        name = field.strip()
        level = (len(field) - len(field.lstrip())) // 2
        if name == "mpmath":
            mpmath_us = cumulative
        if level == 0 and (name == "reglab" or name.startswith("reglab.")):
            reglab_us += cumulative
    return mpmath_us, reglab_us


# ---------------------------------------------------------------- metrics
#
# (name, unit, better).  BENCHMARK.json lists the same names; a test keeps
# the two in step.

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_s.p50", "s", "lower"),
    ("op_s.tail", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("det_agreement_digits.min", "digits", "higher"),
    ("route_agreement_digits.min", "digits", "higher"),
)

SERIES_FUNCS = ("series_pow_rational", "series_mul", "series_inverse",
                "eisenstein_q_expansion")
PER_L = {"bigreal_periods.unique_eval_ratio": (5, 7, 11, 13),
         "elliptic_oracle.scaling_efficiency": (5, 7)}

PER_LAYER = (
    ("exact_series.time_s", "s", "lower"),
    *(("exact_series.{}.self_s".format(f), "s", "lower") for f in SERIES_FUNCS),
    ("exact_series.share", "ratio", "lower"),
    ("exact_series.coeff_calls", "count", "lower"),
    ("exact_series.terms_requested", "count", "lower"),
    ("exact_series.useful_terms_ratio", "ratio", "higher"),
    ("bigreal_periods.eval_IJ.calls", "count", "lower"),
    ("bigreal_periods.eval_IJ.self_s", "s", "lower"),
    ("bigreal_periods.N_used.max", "count", "lower"),
    *(("bigreal_periods.unique_eval_ratio.l{}".format(l), "ratio", "higher")
      for l in PER_L["bigreal_periods.unique_eval_ratio"]),
    ("regulator.regulator_closed_form.self_s", "s", "lower"),
    ("elliptic_oracle.direct_periods.calls", "count", "lower"),
    ("elliptic_oracle.direct_periods.time_s", "s", "lower"),
    ("elliptic_oracle.share", "ratio", "lower"),
    ("elliptic_oracle.error_estimate.max", "abs", "lower"),
    *(("elliptic_oracle.scaling_efficiency.l{}".format(l), "ratio", "higher")
      for l in PER_L["elliptic_oracle.scaling_efficiency"]),
    ("weierstrass.fiber_list.time_s", "s", "lower"),
    ("weierstrass.euler_epsilon.time_s", "s", "lower"),
    ("weierstrass.hodge_and_dims.time_s", "s", "lower"),
    ("gauss_manin.picard_fuchs.time_s", "s", "lower"),
    ("gauss_manin.pf_relation.time_s", "s", "lower"),
    ("cli.compute_payload.self_s", "s", "lower"),
    ("cli.cache.hit_ratio", "ratio", "higher"),
    ("cli.cache.hit_op_s.p50", "s", "lower"),
    ("cli.cache.miss_op_s.p50", "s", "lower"),
    ("cli.cache.bytes_written", "bytes", "lower"),
    ("setup.import_mpmath_s", "s", "lower"),
    ("setup.import_reglab_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _arg(args: Sequence[str], flag: str) -> Optional[str]:
    args = list(args)
    return args[args.index(flag) + 1] if flag in args else None


def pass_end_to_end(ops) -> Dict[str, float]:
    """End-to-end figures of one pass (timings of failed ops are infinite).

    op_s.p50 is left to the caller, which pools every pass's ops for it.
    """
    latencies = [r.latency for r in ops]
    p, met = tail_percentile(len(ops))
    out = {
        "op_s.tail": percentile(latencies, p) if met else median(latencies),
        "peak_rss_mb": max(r.rss_kb for r in ops) / 1024,
        "ok_ratio": sum(r.ok for r in ops) / len(ops),
    }
    digits = [route_digits(r.stdout) for r in ops if r.ok and r.args[0] == "compute"]
    out["det_agreement_digits.min"] = float(min((d for d, _ in digits), default=0))
    out["route_agreement_digits.min"] = min((w for _, w in digits), default=0.0)
    return out


def pass_layers(ops) -> Dict[str, float]:
    """Per-layer figures of one traced pass, from its ops' spans."""
    spans = [s for r in ops for s in r.spans]
    op_wall = sum(r.wall_s for r in ops)
    selfs: Dict[int, Dict[int, float]] = {}
    for r in ops:
        selfs[id(r)] = self_times(r.spans)

    def named(name):
        return [(r, s) for r in ops for s in r.spans if s["name"] == name]

    def self_sum(name):
        return sum(selfs[id(r)][s["id"]] for r, s in named(name))

    def incl(*names):
        return sum(inclusive_time(r.spans, names) for r in ops)

    out: Dict[str, float] = {}
    coeff = named("exact_series.a_coeffs") + named("exact_series.b_coeffs")
    out["exact_series.time_s"] = incl("exact_series.a_coeffs", "exact_series.b_coeffs")
    for f in SERIES_FUNCS:
        out["exact_series.{}.self_s".format(f)] = self_sum("exact_series." + f)
    out["exact_series.share"] = out["exact_series.time_s"] / op_wall
    out["exact_series.coeff_calls"] = float(len(coeff))
    requested = sum(s["attrs"]["N"] for _, s in coeff)
    out["exact_series.terms_requested"] = float(requested)
    useful: Dict[tuple, int] = {}
    for r, s in coeff:
        key = (id(r), s["name"], s["attrs"]["alpha"])
        useful[key] = max(useful.get(key, 0), s["attrs"]["N"])
    out["exact_series.useful_terms_ratio"] = sum(useful.values()) / requested if requested else 0.0

    evals = named("bigreal_periods.eval_IJ")
    out["bigreal_periods.eval_IJ.calls"] = float(len(evals))
    out["bigreal_periods.eval_IJ.self_s"] = self_sum("bigreal_periods.eval_IJ")
    out["bigreal_periods.N_used.max"] = float(max(
        (s["attrs"]["N_used"] for _, s in evals if "N_used" in s["attrs"]), default=0))
    ratios: Dict[int, List[float]] = {}
    for r in ops:
        keys = [(s["attrs"]["l"], s["attrs"]["j"], s["attrs"]["p"])
                for s in r.spans if s["name"] == "bigreal_periods.eval_IJ"]
        if keys:
            ratios.setdefault(keys[0][0], []).append(len(set(keys)) / len(keys))
    for l in PER_L["bigreal_periods.unique_eval_ratio"]:
        out["bigreal_periods.unique_eval_ratio.l{}".format(l)] = (
            median(ratios[l]) if l in ratios else 0.0)
    out["regulator.regulator_closed_form.self_s"] = self_sum("regulator.regulator_closed_form")

    oracle = named("elliptic_oracle.direct_periods")
    out["elliptic_oracle.direct_periods.calls"] = float(len(oracle))
    out["elliptic_oracle.direct_periods.time_s"] = incl("elliptic_oracle.direct_periods")
    out["elliptic_oracle.share"] = out["elliptic_oracle.direct_periods.time_s"] / op_wall
    out["elliptic_oracle.error_estimate.max"] = max(
        (s["attrs"]["error_estimate"] for _, s in oracle if "error_estimate" in s["attrs"]),
        default=0.0)
    by_par: Dict[tuple, List[float]] = {}
    for r in ops:
        par = _arg(r.args, "--parallelism")
        if par is not None and r.args[0] == "compute":
            t = inclusive_time(r.spans, ("elliptic_oracle.direct_periods",))
            by_par.setdefault((int(_arg(r.args, "--l")), int(par)), []).append(t)
    for l in PER_L["elliptic_oracle.scaling_efficiency"]:
        one, two = by_par.get((l, 1)), by_par.get((l, 2))
        out["elliptic_oracle.scaling_efficiency.l{}".format(l)] = (
            median(one) / (2 * median(two)) if one and two and median(two) > 0 else 0.0)

    for name in ("weierstrass.fiber_list", "weierstrass.euler_epsilon",
                 "weierstrass.hodge_and_dims", "gauss_manin.picard_fuchs",
                 "gauss_manin.pf_relation"):
        out[name + ".time_s"] = incl(name)
    out["cli.compute_payload.self_s"] = self_sum("cli.compute_payload")
    return out


def pass_cache(ops) -> Dict[str, float]:
    """Cache figures of one pass, observed from outside the CLI: an op is a hit
    when it wrote nothing to the cache directory."""
    cached = [r for r in ops if r.cache_hit is not None]
    hits = [r.wall_s for r in cached if r.cache_hit]
    misses = [r.wall_s for r in cached if not r.cache_hit]
    return {
        "cli.cache.hit_ratio": len(hits) / len(cached) if cached else 0.0,
        "cli.cache.hit_op_s.p50": median(hits) if hits else 0.0,
        "cli.cache.miss_op_s.p50": median(misses) if misses else 0.0,
        "cli.cache.bytes_written": float(sum(r.bytes_written for r in cached)),
    }


def at_reference_speed(metrics: Dict[str, float], units: Dict[str, str],
                       calibration_s: float) -> Dict[str, float]:
    """The metrics with every time in seconds scaled to the reference speed:
    multiplied by REFERENCE_CALIBRATION_S / the run's calibration median.
    Other units are left alone."""
    factor = REFERENCE_CALIBRATION_S / calibration_s
    return {name: value * factor if units[name] == "s" else value
            for name, value in metrics.items()}


def median_dicts(dicts: Sequence[Dict[str, float]]) -> Dict[str, float]:
    keys = dicts[0].keys() if dicts else ()
    return {k: median([d[k] for d in dicts]) for k in keys}
