"""Command-line front end.

Subcommands:
  compute    period table plus regulator determinant for one l
  fibers     singular fiber inventory of the example family
  pf         Picard-Fuchs data A, A', B and monomial relations
  oracle     quadrature cross-check of the series-route periods
  selfcheck  bundled invariant suite, [pass]/[fail] per check

`compute` checks the series route against the closed 2F1/Beta forms of
`hypergeometric`; `oracle` and `selfcheck` check it against the quadrature of
`elliptic_oracle`.  Either check compares the two routes by one exact
relative difference of dyadic numbers, printed as mpmath's nstr(x, 3) would
print it.  Results of `compute` can be cached as one JSON file per
(l, digits, skip-oracle, version) key, with a CRC-32 of its key and payload
against torn or corrupted files; corrupted or unreadable files are ignored
with a warning, files of another version silently, and either is
recomputed; a cache that cannot be written is reported with a warning.
The command line is read by parse_config from one table of flags per
subcommand: `--flag value` and `--flag=value`, a unique prefix of a flag
(`--dig 30`), the last of a repeated flag, a negative number, a lone `-` or
a string with a space as a value, and `-h`/`--help`, which print usage and
exit 0.  Each command loads only what it runs: `compute` loads the numeric
layer and, where it reads or writes JSON, `json`; a cache hit loads `json`
only; `fibers` and `pf` load the exact layer and no `json`; and no command
loads argparse, gettext, locale or hashlib.  The numeric layer is imported
only inside the functions that evaluate numbers, and loads none of the exact
layer's Fractions and Polynomials; the two routes are compared on Python
ints, without fractions.  The series route and the closed forms
evaluate exact dyadic numbers in Python-int fixed point, so `compute`, with
or without its check, never imports mpmath; mpmath is the arithmetic of the
quadrature of `oracle` and `selfcheck`.

Exit codes: 0 success, 1 a failed selfcheck check, 2 a usage error (printed
as a usage line and `reglab: error: ...`) or a validation error (printed as
`error: ...`; a --cache path that is not a directory among them), 3 precision
or quadrature failure, including the series route more than 1e-6 from the
route it is checked against; a reader that closes the output pipe early
(`reglab fibers --l 5 | head -1`) ends the run with 0.
"""

from __future__ import annotations

import binascii
import math
import os
import sys
from typing import Callable, NamedTuple, Optional

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
    """One run, as parse_config reads it from argv; a flag that is not given,
    or that the subcommand does not take, keeps the default here."""

    subcommand: str
    l: int = 0
    digits: Optional[int] = None  # None means subcommand default
    format: str = "text"
    cache_dir: Optional[str] = None
    skip_oracle: bool = False
    m: Optional[int] = None
    j: Optional[int] = None

    @property
    def effective_digits(self) -> int:
        return _DEFAULT_DIGITS if self.digits is None else self.digits

    @property
    def oracle_bits(self) -> int:
        return _ORACLE_BITS if self.digits is None else _bits(self.digits)


def _bits(digits: int) -> int:
    return int(math.ceil(digits * math.log2(10))) + 8


# ---------------------------------------------------------------- compute

class _Ratio(NamedTuple):
    """A ratio of two integers, unreduced; read, like a Fraction, through
    .numerator and .denominator, and never ordered as a tuple."""

    numerator: int
    denominator: int


def _relative_difference(series, check) -> _Ratio:
    """|series - check| / |series| for two BigReals, exactly: both mantissas on
    the smaller of the two exponents."""
    e = min(series.exp, check.exp)
    s, c = series.man << series.exp - e, check.man << check.exp - e
    return _Ratio(abs(s - c), abs(s))


def _rel_text(x) -> str:
    """A ratio 0 <= x as mpmath's nstr(x, 3) prints it, from x in lowest terms
    floored to 64 bits."""
    from .bigreal import nstr

    g = math.gcd(x.numerator, x.denominator)
    num, den = x.numerator // g, x.denominator // g
    shift = max(64 + den.bit_length() - num.bit_length(), 0)
    return nstr((num << shift) // den, -shift, 3)


def _worst(diffs) -> str:
    """The largest of the exact relative differences, found by
    cross-multiplication, as _rel_text prints it; QuadratureNotConverged when
    |series - check| 10^6 > |series|, past _ORACLE_GATE."""
    diffs = iter(diffs)
    worst = next(diffs)
    for x in diffs:
        if x.numerator * worst.denominator > worst.numerator * x.denominator:
            worst = x
    if worst.numerator * 10 ** 6 > worst.denominator:
        raise QuadratureNotConverged(
            "series route and its check differ by {} relative, above {}".format(
                _rel_text(worst), _ORACLE_GATE))
    return _rel_text(worst)


def _quadrature_rows(pairs, p_oracle: int) -> list:
    """(j, arch, series, quadrature, rel diff) per pair and arch: the series
    route against the quadrature at p_oracle bits.

    series and quadrature are BigReals, so each keeps its certificate; rel
    diff is exact.
    """
    from .bigreal_periods import series_periods
    from .elliptic_oracle import direct_periods

    rows = []
    for pair in pairs:
        want, got = series_periods(pair), direct_periods(pair.l, pair.j, p_oracle)
        for arch, series, check in (("delta", want.delta_period, got.delta_abs),
                                    ("gamma", want.gamma_period, got.gamma_abs)):
            rows.append((pair.j, arch, series, check, _relative_difference(series, check)))
    return rows


def compute_payload(cfg: RunConfig) -> dict:
    from .bigreal_periods import eval_IJ
    from .regulator import regulator_closed_form

    digits = cfg.effective_digits
    p = _bits(digits)
    pairs = [eval_IJ(cfg.l, j, p) for j in range(1, cfg.l)]
    result = regulator_closed_form(cfg.l, p, pairs)
    oracle = None
    if not cfg.skip_oracle:
        from .hypergeometric import period_table

        closed = period_table(cfg.l, _ORACLE_BITS)
        oracle = {"max_rel_diff": _worst(
            _relative_difference(series, check)
            for pair, other in zip(pairs, closed)
            for series, check in ((pair.I, other.I), (pair.J, other.J)))}
    from .integer_kernel import hodge_and_dims

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
        import json

        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if fmt == "csv":
        return _render_csv(payload)
    return _render_text(payload)


# ---------------------------------------------------------------- cache

def _checksum(key: dict, payload: dict) -> str:
    """CRC-32 of the sorted, compact JSON of key and payload, as eight hex digits.

    It catches torn and corrupted files; it is no seal, since whoever can
    write the file can recompute it.  What a loaded entry answers is checked
    by its key and by _check_payload.
    """
    import json

    body = json.dumps({"key": key, "payload": payload},
                      sort_keys=True, separators=(",", ":"))
    return "{:08x}".format(binascii.crc32(body.encode()))


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
    import json

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
    import json

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
    eps, a, deg_h10, deg_h01 = euler_epsilon(fibers)
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
        rel = pf_relation(pf, cfg.m)
        print("relation at m = {}: {}".format(cfg.m, rel))
        scaled = rel * Fraction(3 * cfg.l, 2)
        print("scaled by 3l/2:  {}".format(scaled))
    return 0


# ---------------------------------------------------------------- oracle

def cmd_oracle(cfg: RunConfig) -> int:
    from .bigreal import nstr
    from .bigreal_periods import eval_IJ

    p_series = max(128, cfg.oracle_bits)
    js = [cfg.j] if cfg.j is not None else range(1, cfg.l)
    print("  l  j  arch   {}  {}  {}".format(
        "series route".ljust(22), "quadrature".ljust(22), "rel diff"))
    rows = _quadrature_rows([eval_IJ(cfg.l, j, p_series) for j in js], cfg.oracle_bits)
    # at most 15 significant digits, and none past a value's certificate
    cell = lambda x: nstr(x.man, x.exp, min(15, x.agreement_certificate)).ljust(22)
    for j, arch, series, quadrature, diff in rows:
        print("  {}  {}  {}  {}  {}  {}".format(
            cfg.l, j, arch.ljust(5), cell(series), cell(quadrature), _rel_text(diff)))
    print("max relative difference: {}".format(_worst(row[4] for row in rows)))
    return 0


# ---------------------------------------------------------------- selfcheck

def _check_series_identities() -> bool:
    from fractions import Fraction as F

    from .exact_series import a_coeffs, b_coeffs, formal_alpha
    from .weierstrass import Polynomial

    alpha = formal_alpha()
    a = a_coeffs(alpha, 4)
    b = b_coeffs(alpha, 3)
    return (a[2] == Polynomial([3, -27])
            and a[3] == Polynomial([9, F(-81, 2), F(729, 2)])
            and b[1] == Polynomial([-9, -15])
            and b[2] == Polynomial([27, F(387, 2), F(225, 2)]))


def _check_trace_zero() -> bool:
    from .gauss_manin import connection_matrix
    from .weierstrass import example_family

    return all(connection_matrix(example_family(l)).trace().is_zero()
               for l in (1, 5, 7))


def _check_fiber_list() -> bool:
    from .weierstrass import example_family, fiber_list

    found = {(("infinity" if f.place.is_infinity else str(f.place.polynomial)),
              f.type) for f in fiber_list(example_family(5))}
    return found == {("t", "I_15"), ("t^5 - 1", "I_1"), ("infinity", "IV")}


def _check_epsilon_integrality() -> bool:
    from .weierstrass import euler_epsilon, example_family, fiber_list

    for l in (5, 7, 11, 13, 25):
        eps, a, _, _ = euler_epsilon(fiber_list(example_family(l)))
        if eps != (l - 1) // 3 + 1 or a != 1:
            return False
    return True


def _check_transformation_law(p: int) -> bool:
    from mpmath import mp

    from .exact_series import eisenstein_transform_residual

    r1 = eisenstein_transform_residual(mp.mpc(0, 1), N=80, p=p)
    r2 = eisenstein_transform_residual(mp.mpc(0, 2), N=200, p=p)
    return r1.value < mp.mpf("1e-10") and r2.value < mp.mpf("1e-10")


def _check_vandermonde(p: int) -> bool:
    from .bigreal import digits_of_bits
    from .regulator import vandermonde_like_det

    # the certificate is the digits det^2 shares with l^((l-1)/2), compared exactly
    return all(vandermonde_like_det(l, p).agreement_certificate >= digits_of_bits(p)
               for l in range(3, 16, 2))


def _check_oracle_l5(p_oracle: int) -> bool:
    from .bigreal_periods import eval_IJ

    # past the gate _worst raises, which cmd_selfcheck reports as [fail]
    rows = _quadrature_rows([eval_IJ(5, j, 128) for j in range(1, 5)], p_oracle)
    _worst(row[4] for row in rows)
    return True


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

class _Flag(NamedTuple):
    """One flag of a subcommand: the type of its value (bool: a switch that
    takes none), whether it must be given, the values it may take and the
    least it may be.  Its value lands in the RunConfig field named after it."""

    type: type = int
    required: bool = False
    choices: tuple = ()
    minimum: Optional[int] = None
    metavar: str = ""


class _Command(NamedTuple):
    run: Callable[[RunConfig], int]
    help: str
    flags: dict  # flag -> _Flag, in the order usage lists them


_COMMANDS = {
    "compute": _Command(cmd_compute, "period table and regulator value", {
        "--l": _Flag(required=True),
        "--digits": _Flag(minimum=10),
        "--format": _Flag(str, choices=("json", "csv", "text")),
        "--cache": _Flag(str, metavar="DIR"),
        "--parallelism": _Flag(minimum=1),  # accepted and validated, never used
        "--skip-oracle": _Flag(bool),
    }),
    "fibers": _Command(cmd_fibers, "singular fiber inventory", {
        "--l": _Flag(required=True, minimum=1),
    }),
    "pf": _Command(cmd_pf, "Picard-Fuchs operator data", {
        "--l": _Flag(required=True, minimum=1),
        "--m": _Flag(minimum=0),
    }),
    "oracle": _Command(cmd_oracle, "quadrature cross-check", {
        "--l": _Flag(required=True),
        "--j": _Flag(),
        "--digits": _Flag(minimum=10),
    }),
    "selfcheck": _Command(cmd_selfcheck, "bundled invariant suite", {
        "--digits": _Flag(minimum=10),
    }),
}
_HELP_FLAGS = ("-h", "--help")


def _field(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _flag_text(flag: str, spec: _Flag) -> str:
    if spec.type is bool:
        return flag
    if spec.choices:
        return "{} {{{}}}".format(flag, ",".join(spec.choices))
    return "{} {}".format(flag, spec.metavar or _field(flag).upper())


def _usage(name: str) -> str:
    """The usage line of subcommand name, or of reglab itself for name ""."""
    if not name:
        return "usage: reglab [-h] {{{}}} ...".format(",".join(_COMMANDS))
    words = ["usage: reglab", name, "[-h]"]
    for flag, spec in _COMMANDS[name].flags.items():
        text = _flag_text(flag, spec)
        words.append(text if spec.required else "[{}]".format(text))
    return " ".join(words)


def _help(name: str) -> str:
    """The usage line, then what name does, or what each subcommand does."""
    if name:
        return "{}\n\n{}".format(_usage(name), _COMMANDS[name].help)
    return "\n".join([_usage(""), "", "Period integrals and regulator determinants for "
                       "3y^2 + x^3 + (3x + 4t^l)^2 = 0.", ""] + [
        "  {}  {}".format(n.ljust(9), command.help) for n, command in _COMMANDS.items()])


def _usage_error(name: str, message: str):
    print(_usage(name), file=sys.stderr)
    print("reglab: error: {}".format(message), file=sys.stderr)
    raise SystemExit(2)


def _looks_negative(token: str) -> bool:
    r"""argparse's test for a negative number, ^-\d+$|^-\d*\.\d+$, where $ also
    matches before a final newline and \d is any Unicode decimal digit."""
    body = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, frac = body.partition(".")
    return body.isdecimal() or bool(dot) and frac.isdecimal() and (
        not whole or whole.isdecimal())


def _read(token: str, options, name: str):
    """How argparse reads token where options are the flags: None for a value,
    otherwise (flag, the value after "=" or None), with flag "" for a flag
    that is not among options.  A unique prefix names its flag; -h may carry
    more characters (-hh)."""
    if not token.startswith("-"):
        return None
    if token in options:
        return token, None
    if len(token) == 1:
        return None
    prefix, eq, value = token.partition("=")
    if eq and prefix in options:
        return prefix, value
    if token[1] == "-":
        matches = [option for option in options if option.startswith(prefix)]
        if len(matches) > 1:
            _usage_error(name, "ambiguous option: {} could match {}".format(
                token, ", ".join(matches)))
        if matches:
            return matches[0], value if eq else None
    elif token[:2] in options:
        return token[:2], token[2:]
    if _looks_negative(token) or " " in token:
        return None
    return "", None


def _take_help(read, name: str) -> None:
    """Print the help of name and exit 0; a value after it is a usage error,
    except more h's after -h."""
    flag, value = read
    if value is None or (flag == "-h" and value and not value.strip("h")):
        print(_help(name))
        raise SystemExit(0)
    _usage_error(name, "argument -h/--help: ignored explicit argument {!r}".format(value))


def _value(name: str, flag: str, spec: _Flag, text: str):
    try:
        value = spec.type(text)
    except ValueError:
        _usage_error(name, "argument {}: invalid {} value: {!r}".format(
            flag, spec.type.__name__, text))
    if spec.choices and value not in spec.choices:
        _usage_error(name, "argument {}: invalid choice: {!r} (choose from {})".format(
            flag, value, ", ".join(map(repr, spec.choices))))
    return value


def _parse(argv) -> tuple:
    """The subcommand of argv and its flag values by RunConfig field, read
    as argparse read them: `--flag value`, `--flag=value`, unique prefixes,
    the last of repeated flags, a negative number, a lone - or a string with
    a space as a value; usage errors exit 2 and -h exits 0."""
    args, extras = list(argv), []
    k = 0
    while k < len(args) and args[k] != "--":  # flags before the subcommand: only -h
        read = _read(args[k], _HELP_FLAGS, "")
        if read is None:
            break
        if read[0]:
            _take_help(read, "")
        extras.append(args[k])
        k += 1
    if k == len(args):
        _usage_error("", "the following arguments are required: subcommand")
    name, rest = args[k], args[k + 1:]
    if name not in _COMMANDS:
        _usage_error("", "argument subcommand: invalid choice: {!r} (choose from {})".format(
            name, ", ".join(map(repr, _COMMANDS))))
    flags = _COMMANDS[name].flags
    end = rest.index("--") if "--" in rest else len(rest)  # no flag after --
    # every token is read before any is taken, so an ambiguous prefix fails first
    reads = [_read(token, _HELP_FLAGS + tuple(flags), name) for token in rest[:end]]
    values = {}
    i = 0
    while i < end:
        if reads[i] is None or not reads[i][0]:
            extras.append(rest[i])
        elif reads[i][0] in _HELP_FLAGS:
            _take_help(reads[i], name)
        else:
            flag, text = reads[i]
            spec = flags[flag]
            if spec.type is bool:
                if text is not None:
                    _usage_error(name, "argument {}: ignored explicit argument {!r}".format(
                        flag, text))
                values[_field(flag)] = True
            else:
                if text is None and i + 1 < end and reads[i + 1] is None:
                    i += 1
                    text = rest[i]
                if text is None or text == "--":
                    _usage_error(name, "argument {}: expected one argument".format(flag))
                values[_field(flag)] = _value(name, flag, spec, text)
        i += 1
    missing = [flag for flag, spec in flags.items()
               if spec.required and _field(flag) not in values]
    if missing:
        _usage_error(name, "the following arguments are required: {}".format(
            ", ".join(missing)))
    if extras or end < len(rest):
        _usage_error(name, "unrecognized arguments: {}".format(
            " ".join(extras + rest[end:])))
    return name, values


def parse_config(argv) -> RunConfig:
    """argv as a RunConfig: the one place that reads and checks a command line.

    Usage errors print the usage line and `reglab: error: ...` to stderr and
    raise SystemExit(2); -h and --help print help and raise SystemExit(0).
    A value out of range raises ValueError, an l outside the standing
    assumption UnsupportedL, which main reports as `error: ...` with exit 2.
    """
    name, values = _parse(argv)
    for flag, spec in _COMMANDS[name].flags.items():
        value = values.get(_field(flag))
        if spec.minimum is not None and value is not None and value < spec.minimum:
            raise ValueError("{} must be at least {}".format(flag, spec.minimum))
    values.pop("parallelism", None)
    cache = values.pop("cache", None)
    cfg = RunConfig(name, cache_dir=os.environ.get("REGLAB_CACHE") or cache, **values)
    if name in ("compute", "oracle") and (cfg.l < 5 or math.gcd(cfg.l, 6) != 1):
        raise UnsupportedL(
            "{} requires l >= 5 with gcd(l, 6) = 1 "
            "(the standing assumption on l); got l = {}".format(name, cfg.l))
    if name == "oracle" and cfg.j is not None and not 1 <= cfg.j <= cfg.l - 1:
        raise ValueError("--j must be between 1 and l - 1")
    if (name == "compute" and cfg.cache_dir and os.path.exists(cfg.cache_dir)
            and not os.path.isdir(cfg.cache_dir)):
        raise ValueError("cache path {} is not a directory".format(cfg.cache_dir))
    return cfg


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        code = _COMMANDS[cfg.subcommand].run(cfg)
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
