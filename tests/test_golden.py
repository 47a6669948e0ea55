"""CLI outputs that must keep their bytes.

The files under tests/golden/ hold the stdout of each case: the
`compute --format json --skip-oracle` outputs for l = 5, 7, 11 were recorded
before the exact series moved to scaled-integer arithmetic, and those for
(l, digits) = (25, 15), (13, 30) and (5, 100) before the period sums moved to
fixed-point Horner blocks over a one-pass coefficient recurrence; they cover
the unreduced exponents 5/25 .. 20/25, a run that takes two certificate
rounds, and the largest integers (N_used 164); those for (13, 15), (7, 100)
and (13, 100) before the constants, determinants and decimal output moved to
Python-int fixed point, completing the grid l in {5, 7, 13} x digits in
{15, 30, 100}.  The `fibers` and `pf` outputs were recorded before the
formal series coefficients moved to weierstrass.Polynomial, whose `__str__`
prints them.  Any change to a printed digit, a certificate-driven field
(`N_used`, `det_agreement_digits`), a polynomial or the key order shows up
here as a byte difference.
"""

from pathlib import Path

import pytest

from reglab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _stdout(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("l, digits", [(l, d) for l in (5, 7, 11) for d in (15, 30)]
                         + [(25, 15), (13, 30), (5, 100), (13, 15), (7, 100), (13, 100)])
def test_compute_json_byte_identical(capsys, l, digits):
    out = _stdout(capsys, "compute", "--l", str(l), "--digits", str(digits),
                  "--format", "json", "--skip-oracle")
    assert out == (GOLDEN / "compute_l{}_d{}.json".format(l, digits)).read_text()


@pytest.mark.parametrize("l", (1, 2, 5, 7))
def test_fibers_byte_identical(capsys, l):
    out = _stdout(capsys, "fibers", "--l", str(l))
    assert out == (GOLDEN / "fibers_l{}.txt".format(l)).read_text()


@pytest.mark.parametrize("l,m", ((5, 2), (7, 3)))
def test_pf_byte_identical(capsys, l, m):
    out = _stdout(capsys, "pf", "--l", str(l), "--m", str(m))
    assert out == (GOLDEN / "pf_l{}_m{}.txt".format(l, m)).read_text()
