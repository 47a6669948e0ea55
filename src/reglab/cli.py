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
print it.  Results of `compute` can be cached as one file per
(l, digits, skip-oracle, version) key, which holds what `compute` prints:
a header line with the key and a CRC-32 of the body, then the json, csv
and text renderings, separated by NUL.  A hit prints its section verbatim
when the header is byte for byte the one this run would write and the body
is three sections of printable ASCII and newlines; any other file at the
run's path is reported as corrupt, an unreadable one as unreadable, and
either is recomputed; a cache that cannot be written is reported with a
warning.  Nothing in a cache file is parsed.
The command line is read by parse_config from one table of flags per
subcommand: `--flag value` and `--flag=value`, a unique prefix of a flag
(`--dig 30`), the last of a repeated flag, a negative number, a lone `-` or
a string with a space as a value, and `-h`/`--help`, which print usage and
exit 0.  Each command loads only what it runs: `compute` loads the numeric
layer, and a cache hit none of it; `fibers` and `pf` load the exact layer;
and no command loads json, argparse, gettext, locale or hashlib, since
_json writes --format json.
Records are collections.namedtuples, which a fresh process builds in far
less time than typing.NamedTuple classes.  The
numeric layer is imported only inside the functions that evaluate numbers,
and loads none of the exact layer's Fractions and Polynomials; the two
routes are compared on Python ints, without fractions.  The series route,
the closed forms, the quadrature and the Eisenstein checks evaluate exact
dyadic numbers in Python-int fixed point; `selfcheck`'s transformation law
check compares its residual with 1e-10 on integers.

Exit codes: 0 success, 1 a failed selfcheck check, 2 a usage error (printed
as a usage line and `reglab: error: ...`) or a validation error (printed as
`error: ...`; a --cache path that is not a directory among them), 3 any other
ReglabError or a MemoryError (printed as `error: <ClassName>: ...`):
precision or quadrature failure, the series route more than 1e-6 from the
route it is checked against among them, and 130 an interrupt (Ctrl-C,
printed as `interrupted`, with no traceback); a reader that closes the
output pipe early (`reglab fibers --l 5 | head -1`) ends the run with 0.
A process that main ends (`python -m reglab.cli`, the `reglab` script) freezes
the garbage collector on its way out, so the interpreter's exit collections
skip the objects of start-up; nothing printed or written depends on them.
"""

import binascii
import gc
import math
import os
import sys
from collections import namedtuple

from . import __version__
from .errors import QuadratureNotConverged, ReglabError, UnsupportedL

_DEFAULT_DIGITS = 30
_ORACLE_BITS = 64
_ORACLE_GATE = 1e-6  # largest relative difference allowed between the series route and its check
_FORMATS = ("json", "csv", "text")  # the choices of --format, in the order a cache file holds them


class RunConfig(namedtuple("RunConfig", "subcommand l digits format cache_dir skip_oracle m j",
                           defaults=(0, None, "text", None, False, None, None))):
    """One run, as parse_config reads it from argv; a flag that is not given,
    or that the subcommand does not take, keeps the default here.  digits
    None means the subcommand's default."""

    __slots__ = ()

    @property
    def effective_digits(self) -> int:
        return _DEFAULT_DIGITS if self.digits is None else self.digits

    @property
    def oracle_bits(self) -> int:
        return _ORACLE_BITS if self.digits is None else _bits(self.digits)


def _bits(digits: int) -> int:
    return int(math.ceil(digits * math.log2(10))) + 8


# ---------------------------------------------------------------- compute

def _relative_difference(series, check) -> tuple:
    """|series - check| / |series| for two BigReals, exactly, as the unreduced
    pair (numerator, denominator): both mantissas on the smaller of the two
    exponents."""
    e = min(series.exp, check.exp)
    s, c = series.man << series.exp - e, check.man << check.exp - e
    return abs(s - c), abs(s)


def _rel_text(x) -> str:
    """A ratio 0 <= x, a (numerator, denominator) pair, as mpmath's nstr(x, 3)
    prints it, from x in lowest terms floored to 64 bits."""
    from .bigreal import nstr

    num, den = x
    g = math.gcd(num, den)
    num, den = num // g, den // g
    shift = max(64 + den.bit_length() - num.bit_length(), 0)
    return nstr((num << shift) // den, -shift, 3)


def _worst(diffs) -> str:
    """The largest of the exact relative differences, (numerator, denominator)
    pairs compared by cross-multiplication, as _rel_text prints it;
    QuadratureNotConverged when |series - check| 10^6 > |series|, past
    _ORACLE_GATE."""
    diffs = iter(diffs)
    worst_num, worst_den = next(diffs)
    for num, den in diffs:
        if num * worst_den > worst_num * den:
            worst_num, worst_den = num, den
    if worst_num * 10 ** 6 > worst_den:
        raise QuadratureNotConverged(
            "series route and its check differ by {} relative, above {}".format(
                _rel_text((worst_num, worst_den)), _ORACLE_GATE))
    return _rel_text((worst_num, worst_den))


def _quadrature_rows(l: int, js, p_oracle: int) -> list:
    """(j, arch, series, quadrature, rel diff) per j in js and arch: the
    series route at max(128, p_oracle) bits against the quadrature at
    p_oracle bits, the one precision rule of `oracle` and `selfcheck`.

    series and quadrature are BigReals, so each keeps its certificate; rel
    diff is exact.
    """
    from .bigreal_periods import eval_IJ, series_periods
    from .elliptic_oracle import direct_periods

    rows = []
    for j in js:
        want = series_periods(eval_IJ(l, j, max(128, p_oracle)))
        got = direct_periods(l, j, p_oracle)
        for arch, series, check in (("delta", want.delta_period, got.delta_abs),
                                    ("gamma", want.gamma_period, got.gamma_abs)):
            rows.append((j, arch, series, check, _relative_difference(series, check)))
    return rows


def compute_payload(cfg: RunConfig) -> dict:
    from .bigreal_periods import eval_IJ
    from .regulator import regulator_closed_form

    digits = cfg.effective_digits
    p = _bits(digits)
    pairs = [eval_IJ(cfg.l, j, p) for j in range(1, cfg.l)]
    result = regulator_closed_form(pairs)
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
    lines.append("regulator e_ind = {}    (sine block checked to {} digits)".format(
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


def _plain(s) -> bool:
    """Whether s is a str that json writes as '"' + s + '"': printable ASCII
    with no quote and no backslash."""
    return (isinstance(s, str) and s.isascii() and s.isprintable()
            and '"' not in s and "\\" not in s)


def _json(x) -> str:
    """json.dumps(x, sort_keys=True, separators=(",", ":")), without json, for
    the values a payload holds: None, bools, ints, lists, dicts whose keys
    _plain admits and strs that it admits.  Any other value raises ValueError.

    Importing json costs a fresh process about 1.5 ms, mostly the regexes of
    its decoder and encoder, and no command needs either.
    """
    if x is None:
        return "null"
    if x is True or x is False:  # before int: bool is an int
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if _plain(x):
        return '"' + x + '"'
    if isinstance(x, list):
        return "[" + ",".join(map(_json, x)) + "]"
    if isinstance(x, dict) and all(map(_plain, x)):
        return "{" + ",".join('"{}":{}'.format(k, _json(x[k])) for k in sorted(x)) + "}"
    raise ValueError("no payload value: {!r}".format(x))


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(payload)
    if fmt == "csv":
        return _render_csv(payload)
    return _render_text(payload)


# ---------------------------------------------------------------- cache

_BODY_BYTES = bytes(range(0x20, 0x7F)) + b"\n\0"  # printable ASCII, newlines and the separators


def _cache_path(cfg: RunConfig) -> str:
    name = "reglab-l{}-d{}-{}-v{}.cache".format(
        cfg.l, cfg.effective_digits, "skip-oracle" if cfg.skip_oracle else "oracle", __version__)
    return os.path.join(cfg.cache_dir, name)


def _cache_header(cfg: RunConfig, body: bytes) -> bytes:
    """The first line of the run's cache file: the question its body answers,
    and the CRC-32 of the body.  The CRC catches torn and corrupted files; it
    is no seal, since whoever can write the file can recompute it."""
    return "reglab-cache l={} digits={} skip_oracle={} version={} crc32={:08x}".format(
        cfg.l, cfg.effective_digits, cfg.skip_oracle, __version__,
        binascii.crc32(body)).encode()


def _cache_load(cfg: RunConfig) -> str | None:
    """The section of the run's cache file that --format selects, or None if
    there is no file at the run's path or it is not one this run would write."""
    path = _cache_path(cfg)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fh:
            header, _, body = fh.read().partition(b"\n")
    except OSError as exc:
        print("warning: ignoring unreadable cache file {}: {}".format(path, exc),
              file=sys.stderr)
        return None
    sections = body.split(b"\0")
    if header != _cache_header(cfg, body):
        problem = "header is not this run's key with the CRC-32 of the body"
    elif len(sections) != len(_FORMATS) or body.translate(None, _BODY_BYTES):
        problem = "body is not three NUL-separated sections of printable ASCII"
    else:
        return sections[_FORMATS.index(cfg.format)].decode()
    print("warning: ignoring corrupt cache file {}: {}".format(path, problem), file=sys.stderr)
    return None


def _cache_store(cfg: RunConfig, payload: dict) -> None:
    body = "\0".join(_render(payload, fmt) for fmt in _FORMATS).encode()
    path = _cache_path(cfg)
    # write beside the target, then rename over it: readers see the old file or the new one
    tmp = "{}.{}.tmp".format(path, os.getpid())
    try:
        os.makedirs(cfg.cache_dir, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(_cache_header(cfg, body) + b"\n" + body)
        os.replace(tmp, path)
    except OSError as exc:
        print("warning: could not write cache file {}: {}".format(path, exc),
              file=sys.stderr)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cmd_compute(cfg: RunConfig) -> int:
    out = _cache_load(cfg) if cfg.cache_dir else None
    if out is None:
        payload = compute_payload(cfg)
        if cfg.cache_dir:
            _cache_store(cfg, payload)
        out = _render(payload, cfg.format)
    print(out)
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
        print("  {}  {}  {}".format(str(fiber.place).ljust(20), fiber.type.ljust(8),
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

    js = [cfg.j] if cfg.j is not None else range(1, cfg.l)
    print("  l  j  arch   {}  {}  {}".format(
        "series route".ljust(22), "quadrature".ljust(22), "rel diff"))
    rows = _quadrature_rows(cfg.l, js, cfg.oracle_bits)
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

    from .exact_series import a_coeffs, b_coeffs

    # a_2, a_3, b_1, b_2 against the paper's polynomials in alpha.  y_m is a
    # sum of binom(alpha, i) times rationals over i <= m, so it has degree at
    # most m in alpha; these four (y_1, y_2, y_1, y_2) have degree at most 2,
    # and their values at three distinct alpha fix them
    for alpha in (F(1, 5), F(2, 7), F(5, 11)):
        a, b = a_coeffs(alpha, 4), b_coeffs(alpha, 3)
        if [a[2], a[3], b[1], b[2]] != [
                3 - 27 * alpha, 9 - F(81, 2) * alpha + F(729, 2) * alpha ** 2,
                -9 - 15 * alpha, 27 + F(387, 2) * alpha + F(225, 2) * alpha ** 2]:
            return False
    return True


def _check_connection_gives_operator() -> bool:
    from .gauss_manin import connection_matrix, gives_operator, picard_fuchs
    from .weierstrass import example_family

    return all(gives_operator(connection_matrix(W), picard_fuchs(W))
               for W in map(example_family, (1, 5, 7)))


def _check_fiber_list() -> bool:
    from .weierstrass import example_family, fiber_list

    found = {(str(f.place), f.type) for f in fiber_list(example_family(5))}
    return found == {("t", "I_15"), ("t^5 - 1", "I_1"), ("infinity", "IV")}


def _check_epsilon_integrality() -> bool:
    from .weierstrass import euler_epsilon, example_family, fiber_list

    for l in (5, 7, 11, 13, 25):
        eps, a, _, _ = euler_epsilon(fiber_list(example_family(l)))
        if eps != (l - 1) // 3 + 1 or a != 1:
            return False
    return True


def _check_transformation_law(p: int) -> bool:
    from .exact_series import eisenstein_transform_residual

    # residual < 1e-10, exactly: man 2^exp 10^10 < 1
    below = lambda r: r.man * 10 ** 10 << max(r.exp, 0) < 1 << max(-r.exp, 0)
    return (below(eisenstein_transform_residual(1j, N=80, p=p))
            and below(eisenstein_transform_residual(2j, N=200, p=p)))


def _check_vandermonde(p: int) -> bool:
    from .bigreal import digits_of_bits
    from .regulator import vandermonde_like_det

    # the certificate is the digits to which the sine block passes the check V^2 = l Id
    return all(vandermonde_like_det(l, p).agreement_certificate >= digits_of_bits(p)
               for l in range(3, 16, 2))


def _check_oracle_l5(p_oracle: int) -> bool:
    # past the gate _worst raises, which cmd_selfcheck reports as [fail]
    _worst(row[4] for row in _quadrature_rows(5, range(1, 5), p_oracle))
    return True


def cmd_selfcheck(cfg: RunConfig) -> int:
    bits = cfg.oracle_bits
    checks = [
        ("series coefficient identities", _check_series_identities),
        ("connection gives the picard-fuchs operator", _check_connection_gives_operator),
        ("fiber list for l = 5", _check_fiber_list),
        ("epsilon integrality", _check_epsilon_integrality),
        ("transformation law residual", lambda: _check_transformation_law(max(bits, 128))),
        ("vandermonde determinant identity", lambda: _check_vandermonde(max(bits, 128))),
        ("l = 5 oracle cross-check", lambda: _check_oracle_l5(bits)),
    ]
    failures = 0
    for name, check in checks:
        try:
            ok = bool(check())
        except (ReglabError, ValueError) as exc:
            ok = False
            print("[fail] {} raised {}: {}".format(name, type(exc).__name__, exc))
            failures += 1
            continue
        print("[{}] {}".format("pass" if ok else "fail", name))
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------- entry point

# One flag of a subcommand: the type of its value (bool: a switch that takes
# none), whether it must be given, the values it may take, the least it may be
# and its metavar.  Its value lands in the RunConfig field named after it.
_Flag = namedtuple("_Flag", "type required choices minimum metavar",
                   defaults=(int, False, (), None, ""))
# run(cfg) returns the exit code; flags maps flag -> _Flag, in the order usage lists them
_Command = namedtuple("_Command", "run help flags")


_COMMANDS = {
    "compute": _Command(cmd_compute, "period table and regulator value", {
        "--l": _Flag(required=True),
        "--digits": _Flag(minimum=10),
        "--format": _Flag(str, choices=_FORMATS),
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
    cfg = RunConfig(name, cache_dir=values.pop("cache", None), **values)
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
    """Run one command line and return its exit code.

    argv None means this process's own command line, and that main ends the
    process: on every exit path, gc.freeze() then moves every tracked object
    into the collector's permanent generation.  CPython's finalization runs
    full collections, and about 5 ms of a fresh op went on scanning the 12k
    objects that `site` and the imports leave; frozen, they are not scanned.
    Atexit handlers, the flush of stdout and stderr, and every file closed by
    its `with` run as before.  A caller that passes argv (the tests, the bench
    tracer) lives on after main, so its cyclic garbage is not pinned.
    """
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        code = _COMMANDS[cfg.subcommand].run(cfg)
        sys.stdout.flush()  # a closed pipe raises here, inside the handler, not at exit
        return code
    except (UnsupportedL, ValueError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    except ReglabError as exc:
        print("error: {}: {}".format(type(exc).__name__, exc), file=sys.stderr)
        return 3
    except MemoryError:
        print("error: MemoryError: out of memory", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so the final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
