"""`compute --format json --skip-oracle` must keep its output bytes.

The files under tests/golden/ hold the stdout of each case, recorded before
the exact series moved to scaled-integer arithmetic; any change to a printed
digit, a certificate-driven field (`N_used`, `det_agreement_digits`) or the
key order shows up here as a byte difference.
"""

from pathlib import Path

import pytest

from reglab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("digits", (15, 30))
@pytest.mark.parametrize("l", (5, 7, 11))
def test_compute_json_byte_identical(capsys, l, digits):
    code = main(["compute", "--l", str(l), "--digits", str(digits),
                 "--format", "json", "--skip-oracle"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "compute_l{}_d{}.json".format(l, digits)).read_text()
