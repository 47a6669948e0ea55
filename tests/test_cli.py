import functools
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

import reglab.bigreal as bigreal
import reglab.bigreal_periods as bigreal_periods
import reglab.elliptic_oracle as elliptic_oracle
import reglab.gauss_manin as gauss_manin
import reglab.hypergeometric as hypergeometric
import reglab.regulator as regulator
import reglab.weierstrass as weierstrass
from reglab.bigreal import BigReal
from reglab.bigreal_periods import series_periods
from reglab.cli import main
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

        calls = []
        eval_IJ = bp.eval_IJ  # the original: bp.eval_IJ is the wrapper below

        def counted(l, j, p=128):
            calls.append((l, j, p))
            return eval_IJ(l, j, p)

        closed = []
        closed_form = regulator.regulator_closed_form

        def counted_closed_form(l, p=128, table=None):
            closed.append(table is not None)
            return closed_form(l, p, table)

        monkeypatch.setattr(bp, "eval_IJ", counted)
        monkeypatch.setattr(regulator, "eval_IJ", counted)
        monkeypatch.setattr(regulator, "regulator_closed_form", counted_closed_form)
        for l in (5, 7):
            calls.clear()
            closed.clear()
            cli.compute_payload(cli.parse_config(
                ["compute", "--l", str(l), "--digits", "12", "--skip-oracle"]))
            assert len(calls) == l - 1
            assert closed == [True]  # once, on compute's own table
            assert sorted(j for _, j, _ in calls) == list(range(1, l))

    def test_second_payload_rebuilds_no_scaled_power(self):
        # one compute at l = 31 makes 2 (l - 1) = 60 scaled powers; all must stay cached
        import reglab.cli as cli
        from reglab.integer_kernel import _STORE

        cfg = cli.parse_config(["compute", "--l", "31", "--digits", "15", "--skip-oracle"])
        first = cli.compute_payload(cfg)
        powers = dict(_STORE.powers)
        assert cli.compute_payload(cfg) == first
        assert _STORE.powers == powers  # no new entry, every entry the same object


class TestCache:
    def test_round_trip_byte_identical(self, capsys, tmp_path):
        args = ("compute", "--l", "5", "--digits", "12", "--skip-oracle",
                "--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        files = os.listdir(tmp_path)
        assert len(files) == 1
        before = (tmp_path / files[0]).read_bytes()
        _, second, _ = run(capsys, *args)
        assert first == second
        assert (tmp_path / files[0]).read_bytes() == before

    def test_corrupt_cache_recovers(self, capsys, tmp_path):
        args = ("compute", "--l", "5", "--digits", "12", "--skip-oracle",
                "--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        path = tmp_path / os.listdir(tmp_path)[0]
        entry = json.loads(path.read_text())
        entry["payload"]["regulator_e_ind"] = "9.99"
        path.write_text(json.dumps(entry))
        code, out, err = run(capsys, *args)
        assert code == 0
        assert out == first
        assert "corrupt" in err

    def test_unparseable_cache_recovers(self, capsys, tmp_path):
        args = ("compute", "--l", "5", "--digits", "12", "--skip-oracle",
                "--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        path = tmp_path / os.listdir(tmp_path)[0]
        path.write_text("{not json")
        code, out, err = run(capsys, *args)
        assert code == 0 and out == first and "corrupt" in err

    def test_stale_version_ignored_silently(self, capsys, tmp_path):
        from reglab.cli import _checksum

        args = ("compute", "--l", "5", "--digits", "12", "--skip-oracle",
                "--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        path = tmp_path / os.listdir(tmp_path)[0]
        entry = json.loads(path.read_text())
        entry["key"]["version"] = "0.0.0"
        entry["checksum"] = _checksum(entry["key"], entry["payload"])
        path.write_text(json.dumps(entry))
        code, out, err = run(capsys, *args)
        assert code == 0 and out == first
        assert "corrupt" not in err

    def test_key_includes_skip_oracle(self, capsys, tmp_path, monkeypatch):
        import reglab.cli as cli

        monkeypatch.setattr(cli, "_relative_difference",
                            lambda series, check: Fraction(1, 10 ** 20))
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
        assert all(f.startswith("reglab-") and f.endswith(".json") for f in files)

    def test_key_with_N_still_hits(self, capsys, tmp_path, monkeypatch):
        import reglab.cli as cli

        def not_called(cfg):
            raise AssertionError("cache miss")

        args = ("compute", "--l", "5", "--digits", "12", "--skip-oracle",
                "--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        path = tmp_path / os.listdir(tmp_path)[0]
        entry = json.loads(path.read_text())
        assert "N" not in entry["key"]
        # files written before the key dropped its copy of payload["N_used"]
        entry["key"]["N"] = entry["payload"]["N_used"]
        entry["checksum"] = cli._checksum(entry["key"], entry["payload"])
        path.write_text(json.dumps(entry, sort_keys=True, indent=2) + "\n")
        monkeypatch.setattr(cli, "compute_payload", not_called)
        code, out, err = run(capsys, *args)
        assert code == 0 and out == first and err == ""

    def test_store_leaves_no_temp_file_on_failure(self, capsys, tmp_path, monkeypatch):
        import reglab.cli as cli

        def broken_dump(*args, **kwargs):
            raise OSError("disk full")

        args = ("compute", "--l", "5", "--digits", "12", "--skip-oracle",
                "--cache", str(tmp_path))
        _, first, _ = run(capsys, "compute", "--l", "5", "--digits", "12", "--skip-oracle")
        monkeypatch.setattr(json, "dump", broken_dump)  # the json module cli imports when it writes
        code, out, err = run(capsys, *args)
        assert code == 0 and out == first
        assert "could not write cache file" in err and "disk full" in err
        assert os.listdir(tmp_path) == []

    def test_cache_path_not_a_directory_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cache"
        path.write_text("not a directory")
        code, out, err = run(capsys, "compute", "--l", "5", "--digits", "12",
                             "--skip-oracle", "--cache", str(path))
        assert code == 2 and out == ""
        assert "not a directory" in err
        assert path.read_text() == "not a directory"

    def test_entry_path_is_a_directory(self, capsys, tmp_path):
        import reglab.cli as cli

        args = ("compute", "--l", "5", "--digits", "12", "--skip-oracle")
        _, first, _ = run(capsys, *args)
        cfg = cli.parse_config(list(args) + ["--cache", str(tmp_path)])
        os.mkdir(cli._cache_path(cfg))
        code, out, err = run(capsys, *args, "--cache", str(tmp_path))
        # the load and the store both meet the directory: warn, recompute, print
        assert code == 0 and out == first
        assert "unreadable cache file" in err and "could not write cache file" in err
        assert os.listdir(tmp_path) == [os.path.basename(cli._cache_path(cfg))]

    def test_entry_of_previous_version_not_served(self, capsys, tmp_path):
        import reglab.cli as cli

        assert cli.__version__ != "0.1.0"
        args = ("compute", "--l", "5", "--digits", "10", "--format", "json")
        key = {"l": 5, "digits": 10, "skip_oracle": False, "version": "0.1.0"}
        stale = json.loads((GOLDEN / "compute_l5_d10_oracle.json").read_text())
        stale["oracle_check"] = {"max_rel_diff": "8.7e-12"}  # the quadrature's figure
        entry = {"key": key, "payload": stale, "checksum": cli._checksum(key, stale)}
        (tmp_path / "reglab-l5-d10-oracle-v0.1.0.json").write_text(json.dumps(entry))
        code, out, err = run(capsys, *args, "--cache", str(tmp_path))
        assert code == 0 and err == ""
        assert out == (GOLDEN / "compute_l5_d10_oracle.json").read_text()
        assert json.loads(out)["oracle_check"] != stale["oracle_check"]
        assert sorted(os.listdir(tmp_path)) == sorted([
            "reglab-l5-d10-oracle-v0.1.0.json",
            "reglab-l5-d10-oracle-v{}.json".format(cli.__version__)])

    @pytest.mark.parametrize("fmt, field, value", (
        ("json", "payload", {"l": 5}),
        ("text", "payload", {"l": 5}),
        ("json", "payload", ["l"]),
        ("text", "key", ["l", 5]),
    ))
    def test_malformed_entry_with_valid_checksum_recovers(self, capsys, tmp_path,
                                                          fmt, field, value):
        import reglab.cli as cli

        args = ("compute", "--l", "5", "--digits", "12", "--skip-oracle",
                "--format", fmt, "--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        path = tmp_path / os.listdir(tmp_path)[0]
        before = path.read_bytes()
        entry = json.loads(before)
        entry[field] = value
        entry["checksum"] = cli._checksum(entry["key"], entry["payload"])
        path.write_text(json.dumps(entry))
        code, out, err = run(capsys, *args)
        assert code == 0 and out == first
        assert "ignoring corrupt cache file" in err
        assert path.read_bytes() == before  # recomputed and stored again

    @pytest.mark.parametrize("fmt", ("json", "text"))
    @pytest.mark.parametrize("name, value", (
        ("I", 5),
        ("I", ["0.4", "0.15", "0.08"]),
        ("J", [0.7, 0.3, 0.2, 0.2]),
        ("N_used", "36"),
        ("det_agreement_digits", 17.0),
        ("h", True),
        ("l", 7),
        ("regulator_e_ind", None),
        ("normalization_verified", 1),
        ("oracle_check", {"max_rel_diff": "1e-20"}),
    ))
    def test_malformed_payload_value_recovers(self, capsys, tmp_path, fmt, name, value):
        import reglab.cli as cli

        args = ("compute", "--l", "5", "--digits", "12", "--skip-oracle",
                "--format", fmt, "--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        path = tmp_path / os.listdir(tmp_path)[0]
        before = path.read_bytes()
        entry = json.loads(before)
        entry["payload"][name] = value
        entry["checksum"] = cli._checksum(entry["key"], entry["payload"])
        path.write_text(json.dumps(entry))
        code, out, err = run(capsys, *args)
        assert code == 0 and out == first
        assert "ignoring corrupt cache file" in err
        assert path.read_bytes() == before  # recomputed and stored again

    def test_oracle_entry_without_oracle_check_recovers(self, capsys, tmp_path):
        import reglab.cli as cli

        args = ("compute", "--l", "5", "--digits", "10", "--format", "text",
                "--cache", str(tmp_path))
        _, first, _ = run(capsys, *args)
        path = tmp_path / os.listdir(tmp_path)[0]
        entry = json.loads(path.read_bytes())
        entry["payload"]["oracle_check"] = None
        entry["checksum"] = cli._checksum(entry["key"], entry["payload"])
        path.write_text(json.dumps(entry))
        code, out, err = run(capsys, *args)
        assert code == 0 and out == first
        assert "ignoring corrupt cache file" in err

    def test_env_var_overrides(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REGLAB_CACHE", str(tmp_path))
        code, _, _ = run(capsys, "compute", "--l", "5", "--digits", "12",
                         "--skip-oracle")
        assert code == 0
        assert len(os.listdir(tmp_path)) == 1


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

    def test_selfcheck_fails_an_uncertified_vandermonde(self, capsys, monkeypatch):
        real = regulator.vandermonde_like_det
        monkeypatch.setattr(regulator, "vandermonde_like_det",
                            lambda l, p=128: BigReal(real(l, p), p, 0))
        monkeypatch.setattr(elliptic_oracle, "direct_periods", _real_direct_periods)
        code, out, _ = run(capsys, "selfcheck")
        assert code == 1
        assert out.count("[pass]") == 6
        assert "[fail] vandermonde determinant identity" in out

    def test_selfcheck_fails_a_nonzero_connection_trace(self, capsys, monkeypatch):
        t = weierstrass.RationalFunction(weierstrass.Polynomial([0, 1]))
        monkeypatch.setattr(gauss_manin.ConnectionMatrix, "trace", lambda self: t)
        monkeypatch.setattr(elliptic_oracle, "direct_periods", _real_direct_periods)
        code, out, _ = run(capsys, "selfcheck")
        assert code == 1
        assert out.count("[pass]") == 6
        assert "[fail] connection trace zero" in out


# one quadrature per (l, j, p), shared by the gate and route tests below
_real_direct_periods = functools.lru_cache(maxsize=None)(elliptic_oracle.direct_periods)
_real_period_table = hypergeometric.period_table


def _skewed_direct_periods(l, j, p=64):
    got = _real_direct_periods(l, j, p)
    return got._replace(delta_abs=BigReal(got.delta_abs.value * mp.mpf("1.001"), p))


def _skewed_period_table(l, p=64):
    return [pair._replace(I=BigReal(pair.I.value * mp.mpf("1.001"), p))
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

        assert cli._worst([Fraction(1, 10 ** 20), Fraction(1, 10 ** 6)]) == "1.0e-6"
        with pytest.raises(QuadratureNotConverged, match="differ by 1.0e-6 relative"):
            cli._worst([Fraction(10 ** 14 + 1, 10 ** 20)])


class TestRoutes:
    def test_closed_forms_match_quadrature_l5(self):
        for pair in _real_period_table(5, 64):
            closed = series_periods(pair)
            quadrature = _real_direct_periods(5, pair.j, 64)
            for want, got in ((closed.delta_period, quadrature.delta_abs),
                              (closed.gamma_period, quadrature.gamma_abs)):
                with mp.workprec(96):
                    diff = abs(got.value - want.value) / want.value
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
    decimal); no cache read or write loads OpenSSL; json loads only where JSON
    is read or written; and no command loads argparse, getopt, gettext or
    locale."""

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
        assert report == "0 ['json', 'reglab.bigreal', 'reglab.bigreal_periods']"
        assert miss == (GOLDEN / "compute_l5_d15.json").read_text()
        hit, report = _run_reporting_numeric_imports(*args)
        assert report == "0 ['json']"
        assert hit == miss

    def test_compute_skip_oracle(self):
        out, report = _run_reporting_numeric_imports(
            "compute", "--l", "13", "--digits", "30", "--skip-oracle", "--format", "json")
        assert report == "0 ['json', 'reglab.bigreal', 'reglab.bigreal_periods']"
        assert out == (GOLDEN / "compute_l13_d30.json").read_text()

    def test_checked_compute(self):
        out, report = _run_reporting_numeric_imports(
            "compute", "--l", "5", "--digits", "15", "--format", "json")
        assert report == "0 ['json', 'reglab.bigreal', 'reglab.bigreal_periods']"
        checked = json.loads(out)
        assert float(checked.pop("oracle_check")["max_rel_diff"]) < 1e-6
        skipped = json.loads((GOLDEN / "compute_l5_d15.json").read_text())
        assert skipped.pop("oracle_check") is None and checked == skipped

    def test_text_compute(self):
        out, report = _run_reporting_numeric_imports(
            "compute", "--l", "5", "--digits", "15", "--skip-oracle")
        assert report == "0 ['reglab.bigreal', 'reglab.bigreal_periods']"
        assert "0.346139631939354" in out


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
            scripts = tomllib.load(fh)["project"]["scripts"]
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
