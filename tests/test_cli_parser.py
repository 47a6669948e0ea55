"""cli.parse_config against argparse, and the integer route comparison against Fractions.

_build_parser and _config_from are the argparse front end that cli.parse_config
replaced, kept verbatim as the reference; _reference_config adds the checks
that main made after them.  The Fraction versions of _relative_difference,
_rel_text and _worst are the reference for the integer ones.
"""

import argparse
import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from reglab import cli
from reglab.bigreal import BigReal, nstr
from reglab.cli import RunConfig, parse_config
from reglab.errors import QuadratureNotConverged, UnsupportedL


# ---------------------------------------------------------------- argparse reference

def _config_from(args: argparse.Namespace) -> RunConfig:
    digits = getattr(args, "digits", None)
    if digits is not None and digits < 10:
        raise ValueError("--digits must be at least 10")
    parallelism = getattr(args, "parallelism", None)  # accepted and validated, never used
    if parallelism is not None and parallelism < 1:
        raise ValueError("--parallelism must be at least 1")
    return RunConfig(
        subcommand=args.subcommand,
        l=getattr(args, "l", 0),
        digits=digits,
        format=getattr(args, "format", "text"),
        cache_dir=getattr(args, "cache", None),
        skip_oracle=getattr(args, "skip_oracle", False),
        m=getattr(args, "m", None),
        j=getattr(args, "j", None),
    )


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


_PARSER = _build_parser()


def _reference_config(argv):
    """argv as argparse, _config_from and the checks of main read it."""
    cfg = _config_from(_PARSER.parse_args(argv))
    if cfg.subcommand in ("compute", "oracle") and (cfg.l < 5 or math.gcd(cfg.l, 6) != 1):
        raise UnsupportedL(
            "{} requires l >= 5 with gcd(l, 6) = 1 "
            "(the standing assumption on l); got l = {}".format(cfg.subcommand, cfg.l))
    if cfg.subcommand in ("fibers", "pf") and cfg.l < 1:
        raise ValueError("--l must be at least 1")
    if cfg.subcommand == "pf" and cfg.m is not None and cfg.m < 0:
        raise ValueError("--m must be at least 0")
    if cfg.subcommand == "oracle" and cfg.j is not None and not 1 <= cfg.j <= cfg.l - 1:
        raise ValueError("--j must be between 1 and l - 1")
    if (cfg.subcommand == "compute" and cfg.cache_dir and os.path.exists(cfg.cache_dir)
            and not os.path.isdir(cfg.cache_dir)):
        raise ValueError("cache path {} is not a directory".format(cfg.cache_dir))
    return cfg


def _outcome(parse, argv):
    """("config", RunConfig), ("exit", code) or (error type, message), output discarded."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return "config", parse(list(argv))
        except SystemExit as exc:
            return "exit", exc.code
        except (UnsupportedL, ValueError) as exc:
            return type(exc).__name__, str(exc)


# ---------------------------------------------------------------- argv draws

_FLAGS = {
    "compute": ("--l", "--digits", "--format", "--cache", "--parallelism", "--skip-oracle"),
    "fibers": ("--l",),
    "pf": ("--l", "--m"),
    "oracle": ("--l", "--j", "--digits"),
    "selfcheck": ("--digits",),
}


def _spellings(flag, flags):
    """flag and each of its prefixes that no other flag of the subcommand, nor --help, has."""
    others = [f for f in flags + ("--help",) if f != flag]
    return [flag[:n] for n in range(3, len(flag) + 1)
            if not any(other.startswith(flag[:n]) for other in others)]


# argparse reads a negative number, a lone "-" and a string with a space as a
# value, and anything else that starts with "-" as a flag, so as a missing value
_DASHED = ("-", "-1", "-0", "-7", "-.5", "-1.5", "-1.", "-1e3", "-x", "- 1", "-1 2",
           "--x", "--l", "--dig", "-h", "-1\n", "-٣", "---", "--foo bar")
_INTS = st.integers(-20, 60).map(str)
_VALUES = st.one_of(
    _INTS, _INTS, _INTS, st.sampled_from(("json", "csv", "text")),
    st.sampled_from(("xml", "JSON", "", "x", "1.5", "5x", " 7 ", "+7", "1_1", "٧", "0x5",
                     "tests", "README.md") + _DASHED),
    st.text(max_size=3),
)
_UNKNOWN = ("--foo", "--lx", "--ll", "--digitsx", "-l", "-x", "---", "--=5", "--skip",
            "--skip-oracle=1", "--formats", "-5", "--m", "--j", "--cache")
_STRAY = ("5", "x", "--", "-", "-1", "", "compute", "a b")
_HELP = ("-h", "--help", "--he", "--h", "-hh", "-hx", "--help=x", "-h=", "-h=h")


@st.composite
def _group(draw, flags):
    """One flag with or without its value, an unknown flag, a stray token or a help flag."""
    kind = draw(st.sampled_from(("flag",) * 24 + ("unknown", "stray", "help")))
    if kind == "flag":
        flag = draw(st.sampled_from(flags))
        spelling = draw(st.sampled_from(_spellings(flag, flags)))
        form = draw(st.sampled_from(("separate",) * 4 + ("equals",) * 2 + ("missing",)))
        value = draw(_VALUES)
        if form == "separate":
            return [spelling, value]
        if form == "equals" and value != "--":  # --flag=--: see test_flag_equals_double_dash
            return [spelling + "=" + value]
        return [spelling]
    if kind == "unknown":
        return [draw(st.sampled_from(_UNKNOWN))] + draw(st.lists(_VALUES, max_size=1))
    return [draw(st.sampled_from(_STRAY if kind == "stray" else _HELP))]


@st.composite
def _argv(draw):
    name = draw(st.sampled_from(sorted(_FLAGS)))
    groups = draw(st.lists(_group(_FLAGS[name]), max_size=5))
    if "--l" in _FLAGS[name] and draw(st.sampled_from((True, True, False))):
        groups.insert(0, ["--l", draw(st.sampled_from(("5", "7", "11", "13", "2")))])
    head = draw(st.sampled_from(([],) * 24 + (["--foo"], ["-x"], ["--"], ["-h"], ["5"])))
    shown = draw(st.sampled_from((name,) * 24 + ("frobnicate", name[:3], "")))
    return head + [shown] + [token for group in groups for token in group]


class TestParseConfigMatchesArgparse:
    @settings(max_examples=600, deadline=None)
    @given(_argv())
    @example(["compute", "--l", "5"])
    @example(["compute", "--dig", "30", "--l=7", "--l", "11", "--skip", "--format=csv"])
    @example(["pf", "--l", "5", "--m", "-1"])
    @example(["pf", "--l", "5", "--m", "- 1"])
    @example(["compute", "--l", "5", "--cache", "-"])
    @example(["compute", "--l", "5", "--cache", "-x"])
    @example(["compute", "--l", "5", "--cache", "a b"])
    @example(["compute", "--l", "5", "--", "--digits", "30"])
    @example(["oracle", "--l", "7", "--j", "9"])
    @example(["selfcheck", "--digits", "5"])
    @example(["compute", "--=5", "--l", "5"])
    @example(["compute", "--l", "5", "--format", "xml", "--help"])
    @example(["compute", "--help", "--format", "xml"])
    def test_same_config_or_same_exit(self, argv):
        assert _outcome(parse_config, argv) == _outcome(_reference_config, argv)

    def test_flag_equals_double_dash(self):
        # argparse drops the "--" of --flag=-- and leaves an empty list: main then
        # crashed with a TypeError on an int flag, or ran with [] as format or cache
        args = _PARSER.parse_args(["compute", "--l", "5", "--format=--", "--cache=--"])
        assert args.format == [] and args.cache == []
        for argv in (["compute", "--l", "5", "--format=--"], ["compute", "--l=--"],
                     ["compute", "--l", "5", "--cache=--"], ["pf", "--l", "5", "--m=--"]):
            assert _outcome(parse_config, argv) == ("exit", 2)


class TestHelp:
    @pytest.mark.parametrize("argv", [[], ["compute"], ["fibers"], ["pf"], ["oracle"],
                                      ["selfcheck"]])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_prints_usage_and_exits_0(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [flag])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: reglab " + " ".join(argv)) and err == ""
        for name in (argv or list(_FLAGS)):
            assert name in out

    def test_usage_error_prints_usage_and_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "--l", "x"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "usage: reglab compute [-h] --l L [--digits DIGITS] [--format {json,csv,text}] "
            "[--cache DIR] [--parallelism PARALLELISM] [--skip-oracle]",
            "reglab: error: argument --l: invalid int value: 'x'"]


# ---------------------------------------------------------------- Fraction reference

def _fraction_relative_difference(series, check):
    e = min(series.exp, check.exp)
    s, c = series.man << series.exp - e, check.man << check.exp - e
    return Fraction(abs(s - c), abs(s))


def _fraction_rel_text(x):
    shift = max(64 + x.denominator.bit_length() - x.numerator.bit_length(), 0)
    return nstr((x.numerator << shift) // x.denominator, -shift, 3)


def _fraction_worst(diffs):
    worst = max(diffs)
    if worst * 10 ** 6 > 1:
        raise QuadratureNotConverged(
            "series route and its check differ by {} relative, above {}".format(
                _fraction_rel_text(worst), cli._ORACLE_GATE))
    return _fraction_rel_text(worst)


@st.composite
def _route_pair(draw):
    """(series, check): BigReals of up to 400-bit mantissas on exponents up to 200
    apart, mostly with a relative difference near 1e-6 and sometimes exactly 1e-6."""
    man = draw(st.integers(1, 2 ** 400)) * draw(st.sampled_from((1, -1)))
    exp = draw(st.integers(-700, 100))
    shape = draw(st.sampled_from(("near", "near", "near", "exact", "any")))
    if shape == "exact":
        man = man % 2 ** 380 + 1
        return (BigReal((10 ** 6 * man, exp), 64),
                BigReal((10 ** 6 * man + draw(st.sampled_from((1, -1))) * man, exp), 64))
    check_exp = exp + draw(st.integers(-200, 200))
    if shape == "any":
        return BigReal((man, exp), 64), BigReal((draw(st.integers(-2 ** 400, 2 ** 400)),
                                                check_exp), 64)
    r = Fraction(2 ** 20 + draw(st.integers(-2 ** 20, 2 ** 20)), 2 ** 20 * 10 ** 6)
    target = Fraction(man) * 2 ** (exp - check_exp) * (1 + draw(st.sampled_from((r, -r))))
    return BigReal((man, exp), 64), BigReal((math.floor(target), check_exp), 64)


def _gate(worst, diffs):
    try:
        return "pass", worst(diffs)
    except QuadratureNotConverged as exc:
        return "fail", str(exc)


class TestIntegerComparisonMatchesFractions:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_route_pair(), min_size=1, max_size=4))
    def test_same_gate_and_text(self, pairs):
        ratios = [cli._relative_difference(s, c) for s, c in pairs]
        exact = [_fraction_relative_difference(s, c) for s, c in pairs]
        for ratio, fraction in zip(ratios, exact):
            assert Fraction(*ratio) == fraction
            assert cli._rel_text(ratio) == _fraction_rel_text(fraction)
        assert _gate(cli._worst, ratios) == _gate(_fraction_worst, exact)

    def test_exactly_1e6_passes_and_one_unit_more_fails(self):
        series = BigReal((10 ** 6 * 3, -5), 64)
        at = [cli._relative_difference(series, BigReal((10 ** 6 * 3 + 3, -5), 64))]
        above = [cli._relative_difference(series, BigReal((10 ** 6 * 6 + 7, -6), 64))]
        assert cli._worst(at) == "1.0e-6"
        with pytest.raises(QuadratureNotConverged):
            cli._worst(above)
