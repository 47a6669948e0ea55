import binascii
import functools
import gc
import importlib.metadata
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from det_reference import _skew_sine_column
from mpmath import mp
from mpf_reference import as_mpf, from_mpf

import reglab.bigreal as bigreal
import reglab.bigreal_periods as bigreal_periods
import reglab.elliptic_oracle as elliptic_oracle
import reglab.errors as errors
import reglab.exact_series as exact_series
import reglab.gauss_manin as gauss_manin
import reglab.hypergeometric as hypergeometric
import reglab.regulator as regulator
import reglab.weierstrass as weierstrass
from reglab import __version__
from reglab.bigreal import BigReal
from reglab.bigreal_periods import series_periods
from reglab.cli import _json, main
from reglab.errors import QuadratureNotConverged

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComputeCommand:
    def test_text_table_and_value(self, capsys):
        code, out, _ = run(capsys, "compute", "--l", "5", "--digits", "15",
                           "--skip-oracle")
        assert code == 0
        assert "0.346139631939354" in out
        assert "0.427459772553180" in out  # I(1)
        assert out.count("\n  ") >= 4  # one row per j

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "compute", "--l", "7", "--format", "json",
                           "--digits", "15", "--skip-oracle")
        assert code == 0
        payload = json.loads(out)
        assert payload["l"] == 7 and payload["h"] == 4
        assert len(payload["I"]) == 6 and len(payload["J"]) == 6
        assert payload["regulator_e_ind"].startswith("0.62948786086058")
        assert payload["oracle_check"] is None
        assert isinstance(payload["det_agreement_digits"], int)

    def test_json_oracle_check_present(self, capsys):
        code, out, _ = run(capsys, "compute", "--l", "5", "--format", "json",
                           "--digits", "10")
        assert code == 0
        payload = json.loads(out)
        diff = float(payload["oracle_check"]["max_rel_diff"])
        assert diff < 1e-6
        assert out == (GOLDEN / "compute_l5_d10_oracle.json").read_text()

    def test_normalization_note(self, capsys):
        code, out, _ = run(capsys, "compute", "--l", "11", "--digits", "10", "--skip-oracle")
        assert code == 0
        assert out.endswith("\nnote: normalization follows the generalized formula, "
                            "unverified for this l\n")

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "compute", "--l", "5", "--format", "csv",
                           "--digits", "12", "--skip-oracle")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "l,j,I,J"
        assert len(lines) == 5
        assert lines[1].startswith("5,1,")

    def test_validation_exit_2(self, capsys):
        for bad_l in ("4", "9", "3"):
            code, _, err = run(capsys, "compute", "--l", bad_l)
            assert code == 2
            assert "gcd(l, 6) = 1" in err

    def test_digits_floor(self, capsys):
        code, _, err = run(capsys, "compute", "--l", "5", "--digits", "5")
        assert code == 2
        assert "digits" in err

    def test_parallelism_validated_not_used(self, capsys):
        code1, out1, _ = run(capsys, "compute", "--l", "5", "--digits", "12",
                             "--skip-oracle", "--parallelism", "1")
        code4, out4, _ = run(capsys, "compute", "--l", "5", "--digits", "12",
                             "--skip-oracle", "--parallelism", "4")
        assert code1 == code4 == 0
        assert out1 == out4
        code, _, err = run(capsys, "compute", "--l", "5", "--parallelism", "0")
        assert code == 2 and "parallelism" in err

    def test_one_period_table_per_run(self, monkeypatch):
        import reglab.bigreal_periods as bp
        import reglab.cli as cli
        import reglab.regulator as regulator

        calls, made = [], []
        eval_IJ = bp.eval_IJ  # the original: bp.eval_IJ is the wrapper below

        def counted(l, j, p=128):
            calls.append((l, j, p))
            made.append(eval_IJ(l, j, p))
            return made[-1]

        closed = []
        closed_form = regulator.regulator_closed_form

        def counted_closed_form(table):
            # True when table holds the very pairs compute's eval_IJ calls made
            closed.append(list(map(id, table)) == list(map(id, made)))
            return closed_form(table)

        monkeypatch.setattr(bp, "eval_IJ", counted)
        monkeypatch.setattr(regulator, "regulator_closed_form", counted_closed_form)
        for l in (5, 7):
            calls.clear()
            made.clear()
            closed.clear()
            cli.compute_payload(cli.parse_config(
                ["compute", "--l", str(l), "--digits", "12", "--skip-oracle"]))
            assert len(calls) == l - 1
            assert closed == [True]  # once, on compute's own table
            assert sorted(j for _, j, _ in calls) == list(range(1, l))

    def test_second_payload_rebuilds_no_scaled_power(self):
        # one compute at l = 31 makes 2 (l - 1) = 60 scaled powers; all must stay cached
        import reglab.cli as cli
        from reglab.integer_kernel import scaled_power

        keys = [(j, 31, kind) for j in range(1, 31) for kind in "ab"]
        cfg = cli.parse_config(["compute", "--l", "31", "--digits", "15", "--skip-oracle"])
        first = cli.compute_payload(cfg)
        misses = scaled_power.cache_info().misses
        powers = {key: scaled_power(*key) for key in keys}
        assert cli.compute_payload(cfg) == first
        assert scaled_power.cache_info().misses == misses  # no new entry
        assert all(scaled_power(*key) is power for key, power in powers.items())  # the same objects


_ARGS = ("compute", "--l", "5", "--digits", "12", "--skip-oracle")


def _forge(path, header, body):
    """Write a cache file at path: header and the CRC-32 of body on the first
    line, as cli writes them, then body."""
    path.write_bytes("{} crc32={:08x}\n".format(header, binascii.crc32(body)).encode() + body)


def _key_text(stored):
    """The header of the stored cache file without its CRC, and its body."""
    header, _, body = stored.partition(b"\n")
    return header.decode().rpartition(" crc32=")[0], body


class TestCache:
    def test_round_trip_byte_identical(self, capsys, tmp_path):
        args = _ARGS + ("--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        files = os.listdir(tmp_path)
        assert len(files) == 1
        before = (tmp_path / files[0]).read_bytes()
        _, second, _ = run(capsys, *args)
        assert first == second
        assert (tmp_path / files[0]).read_bytes() == before

    @pytest.mark.parametrize("miss", ("json", "csv", "text"))
    def test_hit_in_another_format(self, capsys, tmp_path, monkeypatch, miss):
        # one file serves every --format, verbatim, and no hit writes to it
        import reglab.cli as cli

        args = ("compute", "--l", "5", "--digits", "10")  # checked: the text shows the oracle line
        code, _, err = run(capsys, *args, "--format", miss, "--cache", str(tmp_path))
        assert code == 0 and err == ""
        [name] = os.listdir(tmp_path)
        path = tmp_path / name
        before, stat = path.read_bytes(), path.stat()
        want = {fmt: run(capsys, *args, "--format", fmt)[1] for fmt in ("json", "csv", "text")}

        def not_again(cfg):
            raise AssertionError("a hit computed the payload")

        monkeypatch.setattr(cli, "compute_payload", not_again)
        for fmt in {"json", "csv", "text"} - {miss}:
            assert run(capsys, *args, "--format", fmt, "--cache", str(tmp_path)) == (
                0, want[fmt], ""), fmt
        assert os.listdir(tmp_path) == [name]
        assert path.read_bytes() == before
        assert (path.stat().st_ino, path.stat().st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)

    def test_corrupt_cache_recovers(self, capsys, tmp_path):
        args = _ARGS + ("--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        path = tmp_path / os.listdir(tmp_path)[0]
        before = path.read_bytes()
        at = before.index(b'"0.') + 3  # a digit of I(1), in the json section
        path.write_bytes(before[:at] + bytes([before[at] ^ 1]) + before[at + 1:])
        code, out, err = run(capsys, *args)
        assert code == 0 and out == first
        assert "ignoring corrupt cache file" in err and "CRC-32" in err
        assert path.read_bytes() == before  # recomputed and stored again

    @pytest.mark.parametrize("keep", (-7, 30), ids=("body", "header"))
    def test_truncated_file_recovers(self, capsys, tmp_path, keep):
        # a torn write: the file cut in the text section, or in the header
        args = _ARGS + ("--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        path = tmp_path / os.listdir(tmp_path)[0]
        before = path.read_bytes()
        assert 30 < before.index(b"\n")
        path.write_bytes(before[:keep])
        code, out, err = run(capsys, *args)
        assert code == 0 and out == first
        assert "ignoring corrupt cache file" in err
        assert path.read_bytes() == before  # recomputed and stored again

    def test_unparseable_cache_recovers(self, capsys, tmp_path):
        args = _ARGS + ("--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        path = tmp_path / os.listdir(tmp_path)[0]
        path.write_text("{not json")
        code, out, err = run(capsys, *args)
        assert code == 0 and out == first and "corrupt" in err

    @pytest.mark.parametrize("text", ("[" * 10 ** 5, '{"a":' * 10 ** 5),
                             ids=("arrays", "objects"))
    def test_deeply_nested_file_recovers(self, capsys, tmp_path, text):
        # no cache file at all, and large: reported and replaced, with nothing parsed
        args = _ARGS + ("--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        path = tmp_path / os.listdir(tmp_path)[0]
        before = path.read_bytes()
        path.write_text(text)
        code, out, err = run(capsys, *args)
        assert code == 0 and out == first
        assert "ignoring corrupt cache file" in err
        assert path.read_bytes() == before  # recomputed and stored again

    def test_stale_version_ignored_silently(self, capsys, tmp_path):
        # another version's file has another name, so it is never opened
        import reglab.cli as cli

        args = _ARGS + ("--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        [name] = os.listdir(tmp_path)
        key, body = _key_text((tmp_path / name).read_bytes())
        stale = tmp_path / name.replace("-v" + cli.__version__, "-v0.0.0")
        _forge(stale, key.replace("version=" + cli.__version__, "version=0.0.0"),
               body.replace(b"0.346", b"9.990"))  # what a served file would print
        old = stale.read_bytes()
        (tmp_path / name).unlink()
        code, out, err = run(capsys, *args)
        assert code == 0 and out == first and err == ""
        assert sorted(os.listdir(tmp_path)) == sorted([name, stale.name])
        assert stale.read_bytes() == old

    def test_key_includes_skip_oracle(self, capsys, tmp_path, monkeypatch):
        import reglab.cli as cli

        monkeypatch.setattr(cli, "_relative_difference",
                            lambda series, check: (1, 10 ** 20))
        base = ("compute", "--l", "5", "--digits", "12", "--format", "json",
                "--cache", str(tmp_path))
        _, skipped, _ = run(capsys, *base, "--skip-oracle")
        _, checked, _ = run(capsys, *base)
        assert json.loads(skipped)["oracle_check"] is None
        assert json.loads(checked)["oracle_check"] == {"max_rel_diff": "1.0e-20"}
        # each key now hits its own file
        assert run(capsys, *base, "--skip-oracle")[1] == skipped
        assert run(capsys, *base)[1] == checked
        files = sorted(os.listdir(tmp_path))
        assert len(files) == 2
        assert all(f.startswith("reglab-") and f.endswith(".cache") for f in files)

    @pytest.mark.parametrize("change", (
        ("l=5 ", "l=7 "), ("digits=12", "digits=13"), ("skip_oracle=True", "skip_oracle=False"),
        ("version=", "N=36 version="), ("version=" + __version__, "version=0.0.0")),
        ids=("l", "digits", "skip_oracle", "extra-N", "version"))
    def test_entry_of_another_key_recomputed(self, capsys, tmp_path, change):
        # a file at the run's path, with a valid CRC, whose header is another key's;
        # "N" is the copy of payload["N_used"] that keys of version 0.1.0 held
        args = _ARGS + ("--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        path = tmp_path / os.listdir(tmp_path)[0]
        before = path.read_bytes()
        key, body = _key_text(before)
        assert key.count(change[0]) == 1
        _forge(path, key.replace(*change), body.replace(b"0.346", b"9.990"))
        code, out, err = run(capsys, *args)
        assert code == 0 and out == first
        assert "ignoring corrupt cache file" in err
        assert path.read_bytes() == before  # recomputed and stored again

    @pytest.mark.parametrize("change", (
        ("l=5 ", "l=5.0 "), ("version=0", "version=\\u0030"), ("digits=30", "digits=030")),
        ids=("float", "escape", "leading-zero"))
    def test_key_equal_only_once_decoded_recovers(self, capsys, tmp_path, change):
        # 5.0 == 5, "\u0030" decodes to "0" and int("030") == 30: a reader that
        # decoded the header would serve this file as the run's own
        args = ("compute", "--l", "5", "--digits", "30", "--skip-oracle",
                "--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        path = tmp_path / os.listdir(tmp_path)[0]
        before = path.read_bytes()
        key, body = _key_text(before)
        assert key.count(change[0]) == 1
        _forge(path, key.replace(*change), body.replace(b"0.346", b"9.990"))
        code, out, err = run(capsys, *args)
        assert code == 0 and out == first
        assert "ignoring corrupt cache file" in err
        assert path.read_bytes() == before  # recomputed and stored again

    @pytest.mark.parametrize("fmt, part, value", (
        ("json", "payload", (0,)),
        ("text", "payload", (0, 1, 2, 2)),
        ("json", "payload", (0, 2)),
        ("text", "key", (0, 2, 1, 3, 4)),
    ))
    def test_malformed_entry_with_valid_checksum_recovers(self, capsys, tmp_path,
                                                          fmt, part, value):
        # the body's sections, or the header's fields, put back together in the
        # order value gives: one section, four, two, or l and digits swapped
        args = _ARGS + ("--format", fmt, "--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        path = tmp_path / os.listdir(tmp_path)[0]
        before = path.read_bytes()
        key, body = _key_text(before)
        if part == "payload":
            sections = body.split(b"\0")
            body = b"\0".join(sections[i] for i in value)
        else:
            fields = key.split(" ")
            assert len(fields) == len(value)
            key = " ".join(fields[i] for i in value)
        _forge(path, key, body)
        code, out, err = run(capsys, *args)
        assert code == 0 and out == first
        assert "ignoring corrupt cache file" in err
        assert ("sections" if part == "payload" else "header") in err
        assert path.read_bytes() == before  # recomputed and stored again

    def test_body_with_an_escape_recovers(self, capsys, tmp_path):
        # the run's header and a valid CRC, but a byte outside printable ASCII
        args = _ARGS + ("--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        path = tmp_path / os.listdir(tmp_path)[0]
        before = path.read_bytes()
        key, body = _key_text(before)
        _forge(path, key, body.replace(b"0.346", b"\x1b[2J0.346"))
        code, out, err = run(capsys, *args)
        assert code == 0 and out == first and "\x1b" not in out
        assert "ignoring corrupt cache file" in err and "sections" in err
        assert path.read_bytes() == before  # recomputed and stored again

    def test_store_leaves_no_temp_file_on_failure(self, capsys, tmp_path, monkeypatch):
        import reglab.cli as cli

        def full_disk_open(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            if "w" in mode:
                def broken_write(data):
                    raise OSError("disk full")

                fh.write = broken_write  # the one write of the entry, after the file is made
            return fh

        args = _ARGS + ("--cache", str(tmp_path))
        _, first, _ = run(capsys, *_ARGS)
        monkeypatch.setattr(cli, "open", full_disk_open, raising=False)  # the open cli writes with
        code, out, err = run(capsys, *args)
        assert code == 0 and out == first
        assert "could not write cache file" in err and "disk full" in err
        assert os.listdir(tmp_path) == []

    def test_cache_path_not_a_directory_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cache"
        path.write_text("not a directory")
        code, out, err = run(capsys, *_ARGS, "--cache", str(path))
        assert code == 2 and out == ""
        assert "not a directory" in err
        assert path.read_text() == "not a directory"

    def test_entry_path_is_a_directory(self, capsys, tmp_path):
        import reglab.cli as cli

        _, first, _ = run(capsys, *_ARGS)
        cfg = cli.parse_config(list(_ARGS) + ["--cache", str(tmp_path)])
        os.mkdir(cli._cache_path(cfg))
        code, out, err = run(capsys, *_ARGS, "--cache", str(tmp_path))
        # the load and the store both meet the directory: warn, recompute, print
        assert code == 0 and out == first
        assert "unreadable cache file" in err and "could not write cache file" in err
        assert os.listdir(tmp_path) == [os.path.basename(cli._cache_path(cfg))]

    def test_entry_of_previous_version_not_served(self, capsys, tmp_path):
        # files of the JSON format, of this version or an older one, are never opened
        import reglab.cli as cli

        assert cli.__version__ != "0.1.0"
        args = ("compute", "--l", "5", "--digits", "10", "--format", "json")
        stale = json.loads((GOLDEN / "compute_l5_d10_oracle.json").read_text())
        stale["oracle_check"] = {"max_rel_diff": "8.7e-12"}  # the quadrature's figure
        old = ["reglab-l5-d10-oracle-v{}.json".format(v) for v in ("0.1.0", cli.__version__)]
        for name in old:
            (tmp_path / name).write_text(json.dumps({"key": {}, "payload": stale}))
        code, out, err = run(capsys, *args, "--cache", str(tmp_path))
        assert code == 0 and err == ""
        assert out == (GOLDEN / "compute_l5_d10_oracle.json").read_text()
        assert sorted(os.listdir(tmp_path)) == sorted(
            old + ["reglab-l5-d10-oracle-v{}.cache".format(cli.__version__)])


def _dumps(x):
    return json.dumps(x, sort_keys=True, separators=(",", ":"))


# the strings _json writes: printable ASCII with no quote and no backslash
_PLAIN = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                               blacklist_characters='"\\'))
_SCALARS = (st.none() | st.booleans() | st.integers() | _PLAIN
            | st.integers(10 ** 299, 10 ** 300) | st.integers(-10 ** 300, -10 ** 299))
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_PLAIN, inner, max_size=4),
    max_leaves=24)


_EXAMPLE = {"b": [True, None, -3, 10 ** 300], "a": {}, "": [[]], "a b": "0.1e-5"}


class TestJson:
    """cli._json writes what json.dumps(x, sort_keys=True, separators=(",", ":"))
    writes, on the values a payload holds, and refuses every other value."""

    @given(x=_PAYLOADS)
    @example(x=_EXAMPLE)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, x):
        assert _json(x) == _dumps(x)

    def test_the_golden_payloads(self):
        for path in sorted(GOLDEN.glob("compute_*.json")):
            text = path.read_text()
            assert _json(json.loads(text)) + "\n" == text, path.name

    @given(s=st.text(min_size=1).filter(lambda s: _dumps(s) != '"' + s + '"'))
    @example(s='1"2')
    @example(s="\\")
    @example(s="\x7f")
    @settings(deadline=None)
    def test_strings_json_would_escape_raise(self, s):
        for x in (s, [s], {"k": s}, {s: 1}):
            with pytest.raises(ValueError):
                _json(x)

    @given(f=st.floats())
    @settings(deadline=None)
    def test_floats_raise(self, f):
        for x in (f, [1, f], {"k": f}):
            with pytest.raises(ValueError):
                _json(x)


class TestClosedPipe:
    @pytest.mark.parametrize("unbuffered", ("", "1"))
    def test_closed_stdout_exits_0(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "reglab.cli", "fibers", "--l", "5"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert b"Traceback" not in proc.stderr
        assert b"BrokenPipeError" not in proc.stderr


class TestOtherCommands:
    def test_fibers(self, capsys):
        code, out, _ = run(capsys, "fibers", "--l", "5")
        assert code == 0
        assert "I_15" in out and "I_1" in out and "IV" in out
        assert "h20 = 1" in out

    def test_fibers_any_positive_l(self, capsys):
        code, out, _ = run(capsys, "fibers", "--l", "2")
        assert code == 0
        assert "I_6" in out
        assert "h20" not in out  # hodge block needs gcd(l,6)=1

    def test_pf(self, capsys):
        code, out, _ = run(capsys, "pf", "--l", "5", "--m", "1")
        assert code == 0
        assert "-104*t^5 + 9" in out

    def test_pf_negative_m_prints_nothing(self, capsys):
        code, out, err = run(capsys, "pf", "--l", "5", "--m", "-1")
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: --m must be at least 0"]

    def test_fibers_builds_delta_and_fiber_list_once(self, capsys, monkeypatch):
        calls, builds = [], []
        real_fiber_list = weierstrass.fiber_list
        real_delta = weierstrass.WeierstrassFamily.delta

        def counted_fiber_list(W):
            calls.append(W)
            return real_fiber_list(W)

        def counted_delta(W):
            if W._delta is None:
                builds.append(W)
            return real_delta.fget(W)

        monkeypatch.setattr(weierstrass, "fiber_list", counted_fiber_list)
        monkeypatch.setattr(weierstrass.WeierstrassFamily, "delta", property(counted_delta))
        code, out, _ = run(capsys, "fibers", "--l", "7")
        assert code == 0
        assert out == (GOLDEN / "fibers_l7.txt").read_text()
        assert len(calls) == len(builds) == 1

    def test_pf_builds_the_operator_once(self, capsys, monkeypatch):
        calls = []
        real = gauss_manin.picard_fuchs

        def counted(W):
            calls.append(W)
            return real(W)

        monkeypatch.setattr(gauss_manin, "picard_fuchs", counted)
        code, out, _ = run(capsys, "pf", "--l", "7", "--m", "3")
        assert code == 0
        assert out == (GOLDEN / "pf_l7_m3.txt").read_text()
        assert len(calls) == 1

    def test_oracle_single_j(self, capsys):
        code, out, _ = run(capsys, "oracle", "--l", "5", "--j", "2")
        assert code == 0
        assert "max relative difference" in out
        worst = float(out.strip().splitlines()[-1].split()[-1])
        assert worst < 1e-6
        assert out == (GOLDEN / "oracle_l5_j2.txt").read_text()

    def test_oracle_prints_no_uncertified_quadrature_digit(self, capsys, monkeypatch):
        certificates = []

        def recorded(l, j, p=64):
            got = _real_direct_periods(l, j, p)
            certificates.extend(x.agreement_certificate for x in (got.delta_abs, got.gamma_abs))
            return got

        monkeypatch.setattr(elliptic_oracle, "direct_periods", recorded)
        code, out, _ = run(capsys, "oracle", "--l", "5", "--j", "2")
        assert code == 0
        cells = [line.split()[4] for line in out.splitlines()[1:-1]]
        assert len(cells) == len(certificates) == 2
        for cell, certificate in zip(cells, certificates):
            assert len(cell.lstrip("0.").replace(".", "")) <= certificate

    def test_oracle_validation(self, capsys):
        code, _, err = run(capsys, "oracle", "--l", "6")
        assert code == 2
        assert "oracle requires" in err and "gcd(l, 6) = 1" in err
        code, _, err = run(capsys, "oracle", "--l", "5", "--j", "9")
        assert code == 2

    def test_selfcheck_passes(self, capsys):
        code, out, _ = run(capsys, "selfcheck")
        assert code == 0
        assert out.count("[pass]") == 7
        assert "[fail]" not in out
        assert out == (GOLDEN / "selfcheck.txt").read_text()

    def test_oracle_and_selfcheck_share_one_precision_rule(self, capsys, monkeypatch):
        # the series route at max(128, bits) and the quadrature at bits, in both commands
        seen = []

        def recorded(route, real):
            return lambda l, j, p: seen.append((route, l, j, p)) or real(l, j, p)

        monkeypatch.setattr(bigreal_periods, "eval_IJ",
                            recorded("series", bigreal_periods.eval_IJ))
        monkeypatch.setattr(elliptic_oracle, "direct_periods",
                            recorded("quadrature", _real_direct_periods))
        by_command = {}
        for argv in (("oracle", "--l", "5", "--digits", "50"), ("selfcheck", "--digits", "50")):
            seen.clear()
            assert run(capsys, *argv)[0] == 0
            by_command[argv[0]] = sorted(seen)
        p = 175  # ceil(50 log2 10) + 8 bits, above the series route's floor of 128
        assert by_command["oracle"] == by_command["selfcheck"] == sorted(
            (route, 5, j, p) for route in ("series", "quadrature") for j in range(1, 5))
        # selfcheck's transformation-law and Vandermonde checks run at max(bits, 128)
        checked = []
        residual, det = exact_series.eisenstein_transform_residual, regulator.vandermonde_like_det
        monkeypatch.setattr(exact_series, "eisenstein_transform_residual",
                            lambda z, N, p: checked.append(p) or residual(z, N, p))
        monkeypatch.setattr(regulator, "vandermonde_like_det",
                            lambda l, p: checked.append(p) or det(l, p))
        for digits, bits in (((), 128), (("--digits", "10"), 128), (("--digits", "50"), 175)):
            checked.clear()
            assert run(capsys, "selfcheck", *digits)[0] == 0
            assert checked == [bits] * 9, digits  # two residuals, seven determinants

    def test_selfcheck_fails_an_uncertified_vandermonde(self, capsys, monkeypatch):
        real = regulator.vandermonde_like_det
        monkeypatch.setattr(regulator, "vandermonde_like_det",
                            lambda l, p=128: BigReal(real(l, p), p, 0))
        monkeypatch.setattr(elliptic_oracle, "direct_periods", _real_direct_periods)
        code, out, _ = run(capsys, "selfcheck")
        assert code == 1
        assert out.count("[pass]") == 6
        assert "[fail] vandermonde determinant identity" in out

    def test_selfcheck_fails_a_skewed_sine_column(self, capsys, monkeypatch):
        # the check of V^2 = l Id behind the Vandermonde line reads the sine column
        _skew_sine_column(monkeypatch)
        monkeypatch.setattr(elliptic_oracle, "direct_periods", _real_direct_periods)
        code, out, _ = run(capsys, "selfcheck")
        assert code == 1
        assert out.count("[pass]") == 6
        assert "[fail] vandermonde determinant identity" in out

    def test_selfcheck_fails_a_skewed_coefficient_at_one_alpha(self, capsys, monkeypatch):
        # b_2 one off at alpha = 2/7 only: the check must read all three alphas
        real = exact_series.b_coeffs

        def skewed(alpha, N):
            b = real(alpha, N)
            if alpha == Fraction(2, 7):
                b[2] += 1
            return b

        monkeypatch.setattr(exact_series, "b_coeffs", skewed)
        monkeypatch.setattr(elliptic_oracle, "direct_periods", _real_direct_periods)
        code, out, _ = run(capsys, "selfcheck")
        assert code == 1
        assert out.count("[pass]") == 6
        assert out.splitlines()[0] == "[fail] series coefficient identities"

    def test_selfcheck_fails_a_nonzero_connection_trace(self, capsys, monkeypatch):
        t = weierstrass.RationalFunction(weierstrass.Polynomial([0, 1]))
        monkeypatch.setattr(gauss_manin.ConnectionMatrix, "trace", lambda self: t)
        monkeypatch.setattr(elliptic_oracle, "direct_periods", _real_direct_periods)
        code, out, _ = run(capsys, "selfcheck")
        assert code == 1
        assert out.count("[pass]") == 6
        assert "[fail] connection gives the picard-fuchs operator" in out

    def test_selfcheck_fails_a_connection_that_is_not_trace_free(self, capsys, monkeypatch):
        real = gauss_manin.connection_matrix

        def not_trace_free(W):
            (a, b), lower = real(W).m
            return gauss_manin.ConnectionMatrix(((a + 1, b), lower))

        monkeypatch.setattr(gauss_manin, "connection_matrix", not_trace_free)
        monkeypatch.setattr(elliptic_oracle, "direct_periods", _real_direct_periods)
        code, out, _ = run(capsys, "selfcheck")
        assert code == 1
        assert out.count("[pass]") == 6
        assert "[fail] connection gives the picard-fuchs operator" in out.splitlines()

    # factors on the diagonal, the upper entry, the lower entry and B, as in
    # test_gauss_manin.py::test_operator_check_fails_trace_free_mutants
    @pytest.mark.parametrize("diag, upper, lower, B", [
        (2, 1, 1, 1), (1, 1, Fraction(101, 100), 1), (1, 2, 1, 1), (1, 1, 1, Fraction(1001, 1000))])
    def test_selfcheck_fails_a_trace_free_mutant(self, capsys, monkeypatch, diag, upper, lower, B):
        real_matrix, real_operator = gauss_manin.connection_matrix, gauss_manin.picard_fuchs

        def mutant(W):
            (a, b), (c, d) = real_matrix(W).m
            return gauss_manin.ConnectionMatrix(((diag * a, upper * b), (lower * c, diag * d)))

        def scaled(W):
            PF = real_operator(W)
            return PF._replace(B=B * PF.B)

        monkeypatch.setattr(gauss_manin, "connection_matrix", mutant)
        monkeypatch.setattr(gauss_manin, "picard_fuchs", scaled)
        monkeypatch.setattr(elliptic_oracle, "direct_periods", _real_direct_periods)
        code, out, _ = run(capsys, "selfcheck")
        assert code == 1
        assert out.count("[pass]") == 6
        assert "[fail] connection gives the picard-fuchs operator" in out.splitlines()

    def test_selfcheck_reports_a_check_that_raises_value_error(self, capsys, monkeypatch):
        def raises(W):
            raise ValueError("connection matrix must be trace-free")

        monkeypatch.setattr(gauss_manin, "connection_matrix", raises)
        monkeypatch.setattr(elliptic_oracle, "direct_periods", _real_direct_periods)
        code, out, _ = run(capsys, "selfcheck")
        assert code == 1
        assert out.count("[pass]") == 6
        assert ("[fail] connection gives the picard-fuchs operator raised ValueError: "
                "connection matrix must be trace-free\n") in out
        assert out.splitlines()[-1] == "[pass] l = 5 oracle cross-check"


# one quadrature per (l, j, p), shared by the gate and route tests below
_real_direct_periods = functools.lru_cache(maxsize=None)(elliptic_oracle.direct_periods)
_real_period_table = hypergeometric.period_table


def _skewed_direct_periods(l, j, p=64):
    got = _real_direct_periods(l, j, p)
    return got._replace(delta_abs=BigReal(from_mpf(as_mpf(got.delta_abs) * mp.mpf("1.001")), p))


def _skewed_period_table(l, p=64):
    return [pair._replace(I=BigReal(from_mpf(as_mpf(pair.I) * mp.mpf("1.001")), p))
            for pair in _real_period_table(l, p)]


class TestOracleGate:
    """A check route 1e-3 off the series route fails the 1e-6 gate everywhere.

    compute checks against the closed forms, oracle and selfcheck against the
    quadrature, so both are skewed.
    """

    @pytest.fixture(autouse=True)
    def skewed_oracle(self, monkeypatch):
        monkeypatch.setattr(elliptic_oracle, "direct_periods", _skewed_direct_periods)
        monkeypatch.setattr(hypergeometric, "period_table", _skewed_period_table)

    def test_compute_exits_3_and_caches_nothing(self, capsys, tmp_path):
        code, out, err = run(capsys, "compute", "--l", "5", "--digits", "10",
                             "--format", "json", "--cache", str(tmp_path))
        assert code == 3
        assert out == ""
        assert "QuadratureNotConverged" in err
        assert os.listdir(tmp_path) == []

    def test_oracle_prints_rows_then_exits_3(self, capsys):
        code, out, err = run(capsys, "oracle", "--l", "5", "--j", "1")
        assert code == 3
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].split()[2:3] == ["delta"] and lines[1].split()[-1] == "0.001"
        assert lines[2].split()[2:3] == ["gamma"]
        assert "max relative difference" not in out
        assert "QuadratureNotConverged" in err

    def test_selfcheck_fails_the_oracle_check(self, capsys):
        code, out, _ = run(capsys, "selfcheck")
        assert code == 1
        assert out.count("[pass]") == 6
        assert "[fail] l = 5 oracle cross-check" in out


def _skewed_constants(name):
    """bigreal.fixed_constants with the constant name 1e-5 relative too
    large, and K = 2 pi / sqrt3 and c = exp(-K) rebuilt from the skewed values."""
    real = bigreal.fixed_constants

    def skewed(w):
        k = real(w)
        k = k._replace(**{name: getattr(k, name) + getattr(k, name) // 10 ** 5})
        K = (k.pi << w + 1) // k.sqrt3
        return k._replace(K=K, c=bigreal.exp(-K, w))

    return skewed


class TestSharedKernels:
    """The series route and the closed forms share the integer kernels, but
    depend on each constant differently: one skewed for both still fails the gate."""

    @pytest.mark.parametrize("name", ("pi", "sqrt3", "ln3"))
    def test_compute_exits_3_and_caches_nothing(self, capsys, tmp_path, monkeypatch, name):
        skewed = _skewed_constants(name)
        for module in (bigreal_periods, hypergeometric, regulator):
            monkeypatch.setattr(module, "fixed_constants", skewed)
        code, out, err = run(capsys, "compute", "--l", "5", "--digits", "10",
                             "--format", "json", "--cache", str(tmp_path))
        assert code == 3
        assert out == ""
        assert "QuadratureNotConverged" in err
        assert os.listdir(tmp_path) == []


class TestGate:
    def test_exact_at_1e6_and_message_uses_the_formatter(self):
        import reglab.cli as cli

        assert cli._worst([(1, 10 ** 20), (1, 10 ** 6)]) == "1.0e-6"
        with pytest.raises(QuadratureNotConverged, match="differ by 1.0e-6 relative"):
            cli._worst([(10 ** 14 + 1, 10 ** 20)])


class TestRoutes:
    def test_closed_forms_match_quadrature_l5(self):
        for pair in _real_period_table(5, 64):
            closed = series_periods(pair)
            quadrature = _real_direct_periods(5, pair.j, 64)
            for want, got in ((closed.delta_period, quadrature.delta_abs),
                              (closed.gamma_period, quadrature.gamma_abs)):
                with mp.workprec(96):
                    diff = abs(as_mpf(got) - as_mpf(want)) / as_mpf(want)
                assert diff < mp.mpf(10) ** -got.agreement_certificate
                assert got.agreement_certificate >= 9

    def test_compute_does_not_import_the_quadrature(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from reglab.cli import main; "
             "code = main(['compute', '--l', '5', '--digits', '10', '--format', 'json']); "
             "print(code, 'reglab.elliptic_oracle' in sys.modules, "
             "'reglab.hypergeometric' in sys.modules, 'mpmath' in sys.modules)"],
            capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == (GOLDEN / "compute_l5_d10_oracle.json").read_text().rstrip("\n")
        # the closed-form check and the series route it checks both run in Python ints
        assert lines[1] == "0 False True False"


_REPORTED_MODULES = ("_hashlib", "argparse", "decimal", "fractions", "getopt", "gettext",
                     "json", "locale", "mpmath", "reglab.bigreal", "reglab.bigreal_periods",
                     "reglab.exact_series", "reglab.weierstrass")
_REPORT_NUMERIC_IMPORTS = (
    "import sys; before = set(sys.modules); from reglab.cli import main; "
    "code = main(sys.argv[1:]); "
    "print(code, [m for m in {!r} if m in sys.modules and m not in before], "
    "file=sys.stderr)".format(_REPORTED_MODULES))


def _run_reporting_numeric_imports(*argv):
    """stdout of the CLI in a fresh process, and its exit code with those of
    _REPORTED_MODULES it loaded: the numeric layer, the exact layer, hashlib,
    json and the argument-parsing modules (argparse, getopt, gettext, locale)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _REPORT_NUMERIC_IMPORTS, *argv],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.decode(), proc.stderr.decode().splitlines()[-1]


class TestImportFootprint:
    """A start-up budget.  Paths that evaluate no number start without mpmath
    and the numeric layer; the series route and its closed-form check run
    without mpmath and without the exact layer's Fractions (fractions imports
    decimal); no cache read or write loads OpenSSL; and no command loads
    json (--format json and the cache files are written and read without
    it), argparse, getopt, gettext or locale."""

    @pytest.mark.parametrize("argv, golden", (
        (("fibers", "--l", "5"), "fibers_l5.txt"),
        (("pf", "--l", "7", "--m", "3"), "pf_l7_m3.txt"),
    ))
    def test_exact_layer_commands(self, argv, golden):
        out, report = _run_reporting_numeric_imports(*argv)
        assert report == "0 ['decimal', 'fractions', 'reglab.weierstrass']"
        assert out == (GOLDEN / golden).read_text()

    def test_cache_hit(self, tmp_path):
        args = ("compute", "--l", "5", "--digits", "15", "--skip-oracle",
                "--format", "json", "--cache", str(tmp_path))
        miss, report = _run_reporting_numeric_imports(*args)
        assert report == "0 ['reglab.bigreal', 'reglab.bigreal_periods']"
        assert miss == (GOLDEN / "compute_l5_d15.json").read_text()
        hit, report = _run_reporting_numeric_imports(*args)
        assert report == "0 []"
        assert hit == miss

    def test_compute_skip_oracle(self):
        out, report = _run_reporting_numeric_imports(
            "compute", "--l", "13", "--digits", "30", "--skip-oracle", "--format", "json")
        assert report == "0 ['reglab.bigreal', 'reglab.bigreal_periods']"
        assert out == (GOLDEN / "compute_l13_d30.json").read_text()

    def test_checked_compute(self):
        out, report = _run_reporting_numeric_imports(
            "compute", "--l", "5", "--digits", "15", "--format", "json")
        assert report == "0 ['reglab.bigreal', 'reglab.bigreal_periods']"
        checked = json.loads(out)
        assert float(checked.pop("oracle_check")["max_rel_diff"]) < 1e-6
        skipped = json.loads((GOLDEN / "compute_l5_d15.json").read_text())
        assert skipped.pop("oracle_check") is None and checked == skipped

    def test_text_compute(self):
        out, report = _run_reporting_numeric_imports(
            "compute", "--l", "5", "--digits", "15", "--skip-oracle")
        assert report == "0 ['reglab.bigreal', 'reglab.bigreal_periods']"
        assert "0.346139631939354" in out

    @pytest.mark.parametrize("argv, golden", (
        (("compute", "--l", "5", "--digits", "10", "--format", "json"),
         "compute_l5_d10_oracle.json"),
        (("compute", "--l", "5", "--digits", "15", "--skip-oracle", "--format", "json"),
         "compute_l5_d15.json"),
    ), ids=("checked", "skip-oracle"))
    def test_json_output_without_json_as_module(self, argv, golden):
        proc = _run_as_module("'json' in sys.modules", *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.decode().splitlines()[-1] == "0 False"
        assert proc.stdout.decode() == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize("argv, golden", (
        (("selfcheck",), "selfcheck.txt"),
        (("compute", "--l", "7", "--digits", "15", "--format", "json"), None),
        (("compute", "--l", "13", "--digits", "30", "--skip-oracle", "--format", "json"),
         "compute_l13_d30.json"),
        (("oracle", "--l", "5", "--j", "2"), "oracle_l5_j2.txt"),
        (("fibers", "--l", "5"), "fibers_l5.txt"),
        (("pf", "--l", "5", "--m", "2"), "pf_l5_m2.txt"),
    ), ids=("selfcheck", "checked-compute", "compute", "oracle", "fibers", "pf"))
    def test_runs_without_mpmath(self, capsys, env_without_mpmath, argv, golden):
        # the checked compute has no golden: its stdout is compared with that
        # of an in-process run, where mpmath is importable
        proc = subprocess.run([sys.executable, "-m", "reglab.cli", *argv],
                              capture_output=True, env=env_without_mpmath, timeout=120)
        assert proc.returncode == 0, proc.stderr
        want = (GOLDEN / golden).read_text() if golden else run(capsys, *argv)[1]
        assert proc.stdout.decode() == want


def _run_as_module(report, *argv):
    """Run the CLI in a fresh process as `python -m reglab.cli` runs it, and
    print to stderr, at its SystemExit, the exit code and the value of the
    Python expression report."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import gc, runpy, sys; sys.argv[0] = 'reglab'\n"
            "try:\n    runpy.run_module('reglab.cli', run_name='__main__')\n"
            "except SystemExit as stop:\n"
            "    print(stop.code, {}, file=sys.stderr)".format(report))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, env=env, timeout=120)


class TestExitPath:
    """main() freezes the collector on every exit path of the process it
    ends; main(argv) never does, so an in-process caller keeps collecting its
    own garbage."""

    @pytest.mark.parametrize("argv, want", (
        (("fibers", "--l", "5"), 0),
        (("frobnicate",), 2),  # a usage error, raised as SystemExit
        (("compute", "--l", "9"), 2),  # an unsupported l, returned
    ))
    def test_in_process_main_does_not_freeze(self, capsys, argv, want):
        before = gc.get_freeze_count()
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = stop.code
        capsys.readouterr()
        assert code == want
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, want, golden", (
        (("fibers", "--l", "5"), 0, "fibers_l5.txt"),
        (("frobnicate",), 2, None),
        (("compute", "--l", "9"), 2, None),
    ))
    def test_fresh_process_freezes(self, argv, want, golden):
        proc = _run_as_module("gc.get_freeze_count() > 0", *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.decode().splitlines()[-1] == "{} True".format(want)
        assert proc.stdout.decode() == ((GOLDEN / golden).read_text() if golden else "")

    def test_cache_written_before_the_freeze(self, capsys, tmp_path):
        # nothing the cache writes waits for the exit collections
        argv = ("compute", "--l", "5", "--digits", "15", "--skip-oracle",
                "--format", "json", "--cache", str(tmp_path))
        miss = _run_as_module("gc.get_freeze_count() > 0", *argv)
        assert miss.returncode == 0 and miss.stderr == b"0 True\n", miss.stderr
        assert miss.stdout.decode() == (GOLDEN / "compute_l5_d15.json").read_text()
        [name] = os.listdir(tmp_path)
        stored = (tmp_path / name).read_bytes()
        # the header, then the three renderings compute prints, without their final newlines
        body = b"\0".join(run(capsys, *argv[:-4], "--format", fmt)[1].encode()[:-1]
                          for fmt in ("json", "csv", "text"))
        header = "reglab-cache l=5 digits=15 skip_oracle=True version={} crc32={:08x}".format(
            __version__, binascii.crc32(body))
        assert stored == header.encode() + b"\n" + body
        hit = _run_as_module("gc.get_freeze_count() > 0", *argv)
        assert hit.returncode == 0 and hit.stderr == b"0 True\n", hit.stderr
        assert hit.stdout == miss.stdout
        assert (tmp_path / name).read_bytes() == stored


# an exception a command raises, the exit code of main, and its one line on stderr
_RAISED = (
    (errors.UnsupportedL("bad l"), 2, "error: bad l"),
    (ValueError("bad value"), 2, "error: bad value"),
    (errors.PrecisionNotReached("short"), 3, "error: PrecisionNotReached: short"),
    (errors.QuadratureNotConverged("apart"), 3, "error: QuadratureNotConverged: apart"),
    (errors.RootOrderingFailed("unordered"), 3, "error: RootOrderingFailed: unordered"),
    (errors.DomainError("outside"), 3, "error: DomainError: outside"),
    (errors.NonIntegralEpsilon("1/2"), 3, "error: NonIntegralEpsilon: 1/2"),
    (errors.NotMinimal("v(Delta) = 12"), 3, "error: NotMinimal: v(Delta) = 12"),
    (errors.IsotrivialFamily("j constant"), 3, "error: IsotrivialFamily: j constant"),
    (MemoryError(), 3, "error: MemoryError: out of memory"),
    (KeyboardInterrupt(), 130, "interrupted"),
)


class TestExitCodes:
    """Whatever a command raises leaves main with a documented code and a
    one-line message: 2 for a validation error, 3 for any other ReglabError
    and for MemoryError, 130 for an interrupt."""

    @pytest.mark.parametrize("exc, want, message", _RAISED,
                             ids=[type(case[0]).__name__ for case in _RAISED])
    def test_each_exception_gives_its_code(self, capsys, monkeypatch, exc, want, message):
        import reglab.cli as cli

        def raising(cfg):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "fibers", cli._COMMANDS["fibers"]._replace(run=raising))
        try:
            code, out, err = run(capsys, "fibers", "--l", "5")
        except BaseException as escaped:  # an escaped KeyboardInterrupt would end the session
            pytest.fail("main let {} escape".format(type(escaped).__name__))
        assert (code, out, err) == (want, "", message + "\n")

    def test_sigint_exits_130_without_traceback(self):
        # one process, interrupted inside the series route: 20000 digits run for hours
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from reglab.cli import main; print('ready', file=sys.stderr, "
             "flush=True); sys.exit(main())",
             "compute", "--l", "5", "--digits", "20000", "--skip-oracle"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stderr.readline() == b"ready\n"
            time.sleep(0.5)  # past the parse, into the sums
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 130
        assert out == b"" and err == b"interrupted\n"


def _run_entry_point(*argv):
    """Run ``reglab.cli:main`` in a fresh process, as the console script does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from reglab.cli import main; sys.exit(main())", *argv],
        capture_output=True, env=env, timeout=120)


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


class TestEntryPoint:
    def test_console_script_installed(self, capsys):
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")

        with open(ROOT / "pyproject.toml", "rb") as fh:
            project = tomllib.load(fh)["project"]
        # the cache key and file name carry __version__, so the two must not drift
        assert project["version"] == __version__
        scripts = project["scripts"]
        assert scripts.get("reglab") == "reglab.cli:main"

        entry = importlib.metadata.EntryPoint(
            name="reglab", value=scripts["reglab"], group="console_scripts")
        assert entry.load() is main

        assert _run_entry_point("frobnicate").returncode == 2
        assert _run_entry_point("compute", "--l", "4").returncode == 2
        proc = _run_entry_point("fibers", "--l", "5")
        assert proc.returncode == 0
        code, out, _ = run(capsys, "fibers", "--l", "5")
        assert code == 0
        assert proc.stdout.decode() == out

    @pytest.mark.skipif(
        not _distribution_installed("reglab"),
        reason="the reglab distribution is not installed "
               "(importlib.metadata.PackageNotFoundError), so no console "
               "script was generated")
    def test_console_script_on_path(self):
        script = shutil.which("reglab")
        assert script is not None
        installed = subprocess.run([script, "fibers", "--l", "5"],
                                   capture_output=True, timeout=120)
        expected = _run_entry_point("fibers", "--l", "5")
        assert installed.returncode == expected.returncode
        assert installed.stdout == expected.stdout

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
