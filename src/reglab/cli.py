"""Command-line front end.

Subcommands:
  compute    period table plus regulator determinant for one l
  fibers     singular fiber inventory of the example family
  pf         Picard-Fuchs data A, A', B and monomial relations
  oracle     quadrature cross-check of the series-route periods
  selfcheck  bundled invariant suite, [pass]/[fail] per check

`compute` checks the series route against the closed 2F1/Gamma forms of
`hypergeometric`; `oracle` and `selfcheck` check it against the quadrature of
`elliptic_oracle`.  Results of `compute` can be cached as one checksummed
JSON file per (l, digits, skip-oracle, version) key; corrupted, unreadable or
stale files are ignored with a warning and recomputed, and a cache that
cannot be written is reported with a warning.  The numeric layer is
imported only inside the functions that evaluate numbers, so `fibers`, `pf`
and cache hits start without it.  Its series route evaluates exact dyadic
numbers in Python-int fixed point, so `compute --skip-oracle` never imports
mpmath either; mpmath is the arithmetic of the checks (the closed forms of
`compute`, the quadrature of `oracle` and `selfcheck`).

Exit codes: 0 success, 1 a failed selfcheck check, 2 validation error (a
--cache path that is not a directory among them), 3 precision or quadrature
failure, including the series route more than 1e-6 from the route it is
checked against; a reader that closes the output pipe early
(`reglab fibers --l 5 | head -1`) ends the run with 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NamedTuple, Optional

from . import __version__
from .errors import (
    PrecisionNotReached,
    QuadratureNotConverged,
    ReglabError,
    UnsupportedL,
)

_DEFAULT_DIGITS = 30
_ORACLE_BITS = 64
_ORACLE_GATE = 1e-6  # largest relative difference allowed between the series route and its check
_PAYLOAD_KEYS = frozenset((  # the keys of a compute_payload result
    "l", "h", "I", "J", "regulator_e_ind", "det_agreement_digits", "oracle_check",
    "N_used", "sign_policy", "normalization_verified"))


class RunConfig(NamedTuple):
    subcommand: str
    l: int
    digits: Optional[int]  # None means subcommand default
    format: str
    cache_dir: Optional[str]
    skip_oracle: bool
    m: Optional[int]
    j: Optional[int]

    @property
    def effective_digits(self) -> int:
        return _DEFAULT_DIGITS if self.digits is None else self.digits

    @property
    def oracle_bits(self) -> int:
        return _ORACLE_BITS if self.digits is None else _bits(self.digits)


def _bits(digits: int) -> int:
    return int(math.ceil(digits * math.log2(10))) + 8


def _config_from(args: argparse.Namespace) -> RunConfig:
    digits = getattr(args, "digits", None)
    if digits is not None and digits < 10:
        raise ValueError("--digits must be at least 10")
    parallelism = getattr(args, "parallelism", None)  # accepted and validated, never used
    if parallelism is not None and parallelism < 1:
        raise ValueError("--parallelism must be at least 1")
    cache_dir = os.environ.get("REGLAB_CACHE") or getattr(args, "cache", None)
    return RunConfig(
        subcommand=args.subcommand,
        l=getattr(args, "l", 0),
        digits=digits,
        format=getattr(args, "format", "text"),
        cache_dir=cache_dir,
        skip_oracle=getattr(args, "skip_oracle", False),
        m=getattr(args, "m", None),
        j=getattr(args, "j", None),
    )


# ---------------------------------------------------------------- compute

def _oracle_rows(pairs, checks) -> list:
    """(j, arch, series, check, rel diff) per pair and arch, series route against another route.

    checks holds one (delta, gamma) pair of period magnitudes per pair, from
    the closed forms or the quadrature.  series and check are BigReals, so
    each keeps its certificate.
    """
    from mpmath import mp

    from .bigreal_periods import series_periods

    rows = []
    for pair, (delta, gamma) in zip(pairs, checks):
        want = series_periods(pair)
        with mp.workprec(max(pair.I.precision, delta.precision) + 16):
            for arch, series, check in (("delta", want.delta_period, delta),
                                        ("gamma", want.gamma_period, gamma)):
                rows.append((pair.j, arch, series, check,
                             abs(check.value - series.value) / series.value))
    return rows


def _quadrature_rows(pairs, p_oracle: int) -> list:
    """_oracle_rows of the pairs against the quadrature at p_oracle bits."""
    from .elliptic_oracle import direct_periods

    quadratures = [direct_periods(pair.l, pair.j, p_oracle) for pair in pairs]
    return _oracle_rows(pairs, [(q.delta_abs, q.gamma_abs) for q in quadratures])


def _worst(rows):
    """The largest relative difference of the rows; QuadratureNotConverged past _ORACLE_GATE."""
    from mpmath import mp

    worst = max(row[4] for row in rows)
    if worst > _ORACLE_GATE:
        raise QuadratureNotConverged(
            "series route and its check differ by {} relative, above {}".format(
                mp.nstr(worst, 3), _ORACLE_GATE))
    return worst


def compute_payload(cfg: RunConfig) -> dict:
    from .bigreal_periods import eval_IJ, series_periods
    from .regulator import _closed_form_from

    digits = cfg.effective_digits
    p = _bits(digits)
    pairs = [eval_IJ(cfg.l, j, p) for j in range(1, cfg.l)]
    result = _closed_form_from(cfg.l, pairs, p)
    oracle = None
    if not cfg.skip_oracle:
        from mpmath import mp

        from .hypergeometric import period_table

        closed = [series_periods(pair) for pair in period_table(cfg.l, _ORACLE_BITS)]
        rows = _oracle_rows(pairs, [(c.delta_period, c.gamma_period) for c in closed])
        oracle = {"max_rel_diff": mp.nstr(_worst(rows), 3)}
    from .weierstrass import hodge_and_dims

    return {
        "l": cfg.l,
        "h": hodge_and_dims(cfg.l)["h"],
        "I": [pair.I.to_decimal(digits) for pair in pairs],
        "J": [pair.J.to_decimal(digits) for pair in pairs],
        "regulator_e_ind": result.value_e_ind.to_decimal(digits),
        "det_agreement_digits": result.det_agreement_digits,
        "oracle_check": oracle,
        "N_used": max(pair.N_used for pair in pairs),
        "sign_policy": result.sign_policy,
        "normalization_verified": result.normalization_verified,
    }


def _render_text(payload: dict) -> str:
    width = max(len(v) for v in payload["I"] + payload["J"]) + 2
    lines = [
        "l = {}    h = {}    sign policy: {}".format(
            payload["l"], payload["h"], payload["sign_policy"]),
        "  j  {}{}".format("I(j)".ljust(width), "J(j)"),
    ]
    for j, (iv, jv) in enumerate(zip(payload["I"], payload["J"]), start=1):
        lines.append("  {}  {}{}".format(j, iv.ljust(width), jv))
    lines.append("regulator e_ind = {}    (det routes agree to {} digits)".format(
        payload["regulator_e_ind"], payload["det_agreement_digits"]))
    if payload["oracle_check"] is None:
        lines.append("oracle check: skipped")
    else:
        lines.append("oracle check: max relative difference {}".format(
            payload["oracle_check"]["max_rel_diff"]))
    if not payload["normalization_verified"]:
        lines.append("note: normalization follows the generalized formula, "
                     "unverified for this l")
    return "\n".join(lines)


def _render_csv(payload: dict) -> str:
    lines = ["l,j,I,J"]
    for j, (iv, jv) in enumerate(zip(payload["I"], payload["J"]), start=1):
        lines.append("{},{},{},{}".format(payload["l"], j, iv, jv))
    return "\n".join(lines)


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if fmt == "csv":
        return _render_csv(payload)
    return _render_text(payload)


# ---------------------------------------------------------------- cache

def _checksum(key: dict, payload: dict) -> str:
    import hashlib

    body = json.dumps({"key": key, "payload": payload},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def _cache_path(cfg: RunConfig) -> str:
    name = "reglab-l{}-d{}-{}-v{}.json".format(
        cfg.l, cfg.effective_digits,
        "skip-oracle" if cfg.skip_oracle else "oracle", __version__)
    return os.path.join(cfg.cache_dir, name)


def _check_payload(payload, cfg: RunConfig) -> None:
    """Raise ValueError unless payload has the keys, value types and lengths of
    what compute_payload(cfg) returns."""
    if not isinstance(payload, dict) or payload.keys() != _PAYLOAD_KEYS:
        raise ValueError("payload does not have the keys of a computed one")
    for name in ("l", "h", "N_used", "det_agreement_digits"):
        if type(payload[name]) is not int:
            raise ValueError("payload {} is not an integer".format(name))
    if payload["l"] != cfg.l:
        raise ValueError("payload l is not the requested l")
    for name in ("I", "J"):
        values = payload[name]
        if not (isinstance(values, list) and len(values) == cfg.l - 1
                and all(isinstance(v, str) for v in values)):
            raise ValueError("payload {} is not a list of l - 1 strings".format(name))
    for name in ("regulator_e_ind", "sign_policy"):
        if not isinstance(payload[name], str):
            raise ValueError("payload {} is not a string".format(name))
    if not isinstance(payload["normalization_verified"], bool):
        raise ValueError("payload normalization_verified is not a boolean")
    oracle = payload["oracle_check"]
    if cfg.skip_oracle:
        if oracle is not None:
            raise ValueError("payload oracle_check is not null under --skip-oracle")
    elif not (isinstance(oracle, dict) and oracle.keys() == {"max_rel_diff"}
              and isinstance(oracle["max_rel_diff"], str)):
        raise ValueError("payload oracle_check does not hold a max_rel_diff string")


def _cache_load(cfg: RunConfig) -> Optional[dict]:
    path = _cache_path(cfg)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            entry = json.load(fh)
        key, payload = entry["key"], entry["payload"]
        if entry["checksum"] != _checksum(key, payload):
            raise ValueError("checksum mismatch")
        if not isinstance(key, dict):
            raise ValueError("key is not an object")
        if key.get("version") != __version__:
            return None  # stale artifact version
        if (key.get("l"), key.get("digits"), key.get("skip_oracle")) != (
                cfg.l, cfg.effective_digits, cfg.skip_oracle):
            return None
        _check_payload(payload, cfg)
    except (ValueError, KeyError, TypeError) as exc:
        print("warning: ignoring corrupt cache file {}: {}".format(path, exc),
              file=sys.stderr)
        return None
    except OSError as exc:
        print("warning: ignoring unreadable cache file {}: {}".format(path, exc),
              file=sys.stderr)
        return None
    return payload


def _cache_store(cfg: RunConfig, payload: dict) -> None:
    key = {
        "l": cfg.l,
        "digits": cfg.effective_digits,
        "skip_oracle": cfg.skip_oracle,
        "version": __version__,
    }
    entry = {"key": key, "payload": payload,
             "checksum": _checksum(key, payload)}
    path = _cache_path(cfg)
    # write beside the target, then rename over it: readers see the old file or the new one
    tmp = "{}.{}.tmp".format(path, os.getpid())
    try:
        os.makedirs(cfg.cache_dir, exist_ok=True)
        with open(tmp, "w") as fh:
            json.dump(entry, fh, sort_keys=True, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        print("warning: could not write cache file {}: {}".format(path, exc),
              file=sys.stderr)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cmd_compute(cfg: RunConfig) -> int:
    payload = _cache_load(cfg) if cfg.cache_dir else None
    if payload is None:
        payload = compute_payload(cfg)
        if cfg.cache_dir:
            _cache_store(cfg, payload)
    print(_render(payload, cfg.format))
    return 0


# ---------------------------------------------------------------- fibers / pf

def cmd_fibers(cfg: RunConfig) -> int:
    from .weierstrass import (
        discriminant_and_j,
        euler_epsilon,
        example_family,
        fiber_list,
        hodge_and_dims,
    )

    W = example_family(cfg.l)
    print("family: {}".format(W.label))
    fibers = fiber_list(W)
    print("  {}  {}  {}".format("place".ljust(20), "type".ljust(8), "epsilon"))
    for fiber in fibers:
        place = "infinity" if fiber.place.is_infinity else str(fiber.place.polynomial)
        print("  {}  {}  {}".format(place.ljust(20), fiber.type.ljust(8),
                                    fiber.epsilon_s))
    eps, a, deg_h10, deg_h01 = euler_epsilon(W)
    print("epsilon = {}   a = {}   deg H^(1,0) = {}   deg H^(0,1) = {}".format(
        eps, a, deg_h10, deg_h01))
    if math.gcd(cfg.l, 6) == 1:
        dims = hodge_and_dims(cfg.l)
        print("hodge: h20 = {h20}   h11 = {h11}   h = {h}   "
              "dim Lambda1 = {dim_Lambda1}   dim Lambda2 = {dim_Lambda2}".format(**dims))
    _, j_inv = discriminant_and_j(W)
    print("j nonconstant: {}".format(not j_inv.is_constant()))
    return 0


def cmd_pf(cfg: RunConfig) -> int:
    from fractions import Fraction

    from .gauss_manin import picard_fuchs, pf_relation
    from .weierstrass import example_family

    W = example_family(cfg.l)
    pf = picard_fuchs(W)
    print("family: {}".format(W.label))
    print("A  = {}".format(pf.A))
    print("A' = {}".format(pf.A.derivative()))
    print("B  = {}".format(pf.B))
    if cfg.m is not None:
        rel = pf_relation(W, cfg.m)
        print("relation at m = {}: {}".format(cfg.m, rel))
        scaled = rel * Fraction(3 * cfg.l, 2)
        print("scaled by 3l/2:  {}".format(scaled))
    return 0


# ---------------------------------------------------------------- oracle

def cmd_oracle(cfg: RunConfig) -> int:
    from mpmath import mp

    from .bigreal_periods import eval_IJ

    p_series = max(128, cfg.oracle_bits)
    js = [cfg.j] if cfg.j is not None else range(1, cfg.l)
    print("  l  j  arch   {}  {}  {}".format(
        "series route".ljust(22), "quadrature".ljust(22), "rel diff"))
    rows = _quadrature_rows([eval_IJ(cfg.l, j, p_series) for j in js], cfg.oracle_bits)
    # at most 15 significant digits, and none past a value's certificate
    cell = lambda x: mp.nstr(x.value, min(15, x.agreement_certificate)).ljust(22)
    for j, arch, series, quadrature, diff in rows:
        print("  {}  {}  {}  {}  {}  {}".format(
            cfg.l, j, arch.ljust(5), cell(series), cell(quadrature), mp.nstr(diff, 3)))
    print("max relative difference: {}".format(mp.nstr(_worst(rows), 3)))
    return 0


# ---------------------------------------------------------------- selfcheck

def _check_series_identities() -> bool:
    from fractions import Fraction as F

    from .exact_series import a_coeffs, b_coeffs, formal_alpha
    from .weierstrass import Polynomial

    alpha = formal_alpha()
    a = a_coeffs(alpha, 4)
    b = b_coeffs(alpha, 3)
    return (a.coefficient(2) == Polynomial([3, -27])
            and a.coefficient(3) == Polynomial([9, F(-81, 2), F(729, 2)])
            and b.coefficient(1) == Polynomial([-9, -15])
            and b.coefficient(2) == Polynomial([27, F(387, 2), F(225, 2)]))


def _check_trace_zero() -> bool:
    from .gauss_manin import connection_matrix
    from .weierstrass import example_family

    return all(connection_matrix(example_family(l)).trace().is_zero
               for l in (1, 5, 7))


def _check_fiber_list() -> bool:
    from .weierstrass import example_family, fiber_list

    found = {(("infinity" if f.place.is_infinity else str(f.place.polynomial)),
              f.type) for f in fiber_list(example_family(5))}
    return found == {("t", "I_15"), ("t^5 - 1", "I_1"), ("infinity", "IV")}


def _check_epsilon_integrality() -> bool:
    from .weierstrass import euler_epsilon, example_family

    for l in (5, 7, 11, 13, 25):
        eps, a, _, _ = euler_epsilon(example_family(l))
        if eps != (l - 1) // 3 + 1 or a != 1:
            return False
    return True


def _check_transformation_law(p: int) -> bool:
    from mpmath import mp

    from .bigreal_periods import eisenstein_transform_residual

    r1 = eisenstein_transform_residual(mp.mpc(0, 1), N=80, p=p)
    r2 = eisenstein_transform_residual(mp.mpc(0, 2), N=200, p=p)
    return r1.value < mp.mpf("1e-10") and r2.value < mp.mpf("1e-10")


def _check_vandermonde(p: int) -> bool:
    from mpmath import mp

    from .regulator import vandermonde_like_det

    for l in range(3, 16, 2):
        v = vandermonde_like_det(l, p)
        with mp.workprec(p + 32):
            target = mp.mpf(l) ** ((l - 1) // 2)
            if abs(v.value * v.value - target) > mp.mpf("1e-20") * target:
                return False
    return True


def _check_oracle_l5(p_oracle: int) -> bool:
    from .bigreal_periods import eval_IJ

    # past the gate _worst raises, which cmd_selfcheck reports as [fail]
    rows = _quadrature_rows([eval_IJ(5, j, 128) for j in range(1, 5)], p_oracle)
    return _worst(rows) <= _ORACLE_GATE


def cmd_selfcheck(cfg: RunConfig) -> int:
    p = _bits(cfg.effective_digits)
    checks = [
        ("series coefficient identities", _check_series_identities),
        ("connection trace zero", _check_trace_zero),
        ("fiber list for l = 5", _check_fiber_list),
        ("epsilon integrality", _check_epsilon_integrality),
        ("transformation law residual", lambda: _check_transformation_law(max(p, 128))),
        ("vandermonde determinant identity", lambda: _check_vandermonde(max(p, 128))),
        ("l = 5 oracle cross-check", lambda: _check_oracle_l5(cfg.oracle_bits)),
    ]
    failures = 0
    for name, check in checks:
        try:
            ok = bool(check())
        except ReglabError as exc:
            ok = False
            print("[fail] {} raised {}: {}".format(name, type(exc).__name__, exc))
            failures += 1
            continue
        print("[{}] {}".format("pass" if ok else "fail", name))
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------- entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reglab",
        description="Period integrals and regulator determinants for "
                    "3y^2 + x^3 + (3x + 4t^l)^2 = 0.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    compute = sub.add_parser("compute", help="period table and regulator value")
    compute.add_argument("--l", type=int, required=True)
    compute.add_argument("--digits", type=int, default=None)
    compute.add_argument("--format", choices=("json", "csv", "text"), default="text")
    compute.add_argument("--cache", default=None, metavar="DIR")
    compute.add_argument("--parallelism", type=int, default=None)
    compute.add_argument("--skip-oracle", action="store_true", dest="skip_oracle")

    fibers = sub.add_parser("fibers", help="singular fiber inventory")
    fibers.add_argument("--l", type=int, required=True)

    pf = sub.add_parser("pf", help="Picard-Fuchs operator data")
    pf.add_argument("--l", type=int, required=True)
    pf.add_argument("--m", type=int, default=None)

    oracle = sub.add_parser("oracle", help="quadrature cross-check")
    oracle.add_argument("--l", type=int, required=True)
    oracle.add_argument("--j", type=int, default=None)
    oracle.add_argument("--digits", type=int, default=None)

    selfcheck = sub.add_parser("selfcheck", help="bundled invariant suite")
    selfcheck.add_argument("--digits", type=int, default=None)
    return parser


_DISPATCH = {
    "compute": cmd_compute,
    "fibers": cmd_fibers,
    "pf": cmd_pf,
    "oracle": cmd_oracle,
    "selfcheck": cmd_selfcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
        if cfg.subcommand in ("compute", "oracle") and (cfg.l < 5 or math.gcd(cfg.l, 6) != 1):
            raise UnsupportedL(
                "{} requires l >= 5 with gcd(l, 6) = 1 "
                "(the standing assumption on l); got l = {}".format(cfg.subcommand, cfg.l))
        if cfg.subcommand in ("fibers", "pf") and cfg.l < 1:
            raise ValueError("--l must be at least 1")
        if cfg.subcommand == "oracle" and cfg.j is not None and not 1 <= cfg.j <= cfg.l - 1:
            raise ValueError("--j must be between 1 and l - 1")
        if (cfg.subcommand == "compute" and cfg.cache_dir and os.path.exists(cfg.cache_dir)
                and not os.path.isdir(cfg.cache_dir)):
            raise ValueError("cache path {} is not a directory".format(cfg.cache_dir))
        code = _DISPATCH[cfg.subcommand](cfg)
        sys.stdout.flush()  # a closed pipe raises here, inside the handler, not at exit
        return code
    except (UnsupportedL, ValueError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    except (PrecisionNotReached, QuadratureNotConverged) as exc:
        print("error: {}: {}".format(type(exc).__name__, exc), file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so the final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
