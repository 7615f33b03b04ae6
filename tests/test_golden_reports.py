"""Pinned sha256 digests of the `--format json` report of every leaf
subcommand (the list that bench/run.py runs as verify-cold).

A report may change only on purpose: update its digest here and log the
change in CHANGES.md.  The reports do not depend on string-hash order; CI
runs this file under two PYTHONHASHSEED values.
"""

import hashlib

import pytest

from k3census import cli

GOLDEN = {
    "verify lemma-4.2": "1cd3e0e8ad9ed534b73988723dae73138f528eb879282263e3745c78b494020d",
    "verify lemma-4.5": "deec4a4ff4b39dbcf5877d09be13017b1d9a1e3ff212591aeef5d93496114a6f",
    "verify lemma-5.1": "5b1c08ca03fa1bbed989e3f7f5e6d1d93043388544cf6a50fd22e4b8566cca20",
    "verify lemma-5.2": "50ceabc15be311885af3bd3e73e75c0c62ce12fe7f4ee8d7b664377aeb01d501",
    "verify lemma-5.3": "4ce664319e49dd1eb2b33b2edfbd1a09ff3cf450a6aec56973e80620d5f1d855",
    "verify lemma-6.3": "bc8fb84bc2978493c3e94a218202b31631666a55f8c86484f9177e02a377fa46",
    "verify lemma-6.4": "b80410ec79ccd80eeff1d39a3cfc4d1e8ecd0cc85d3c26ba00da06c24afec62d",
    "verify lemma-6.5": "b214c5193c08542863e34451cfa05f4a8f181f7dc0a55060a1687bcc6a273560",
    "verify remark-4.7": "5338cdfaf5e1d83c882cccfe81eb20eda15fe277d2e1c39cc9872e370c6409f4",
    "verify theorem-1.7": "132837fd618f33cce6f76adb21fe5a96ee38986e4e3bc234f4ff7a315a6096c3",
    "census p5": "0afb908e8de2e1b7246e4eaea20919927586402ab685ef33e370b8de8584184e",
    "census p7": "cdf350a3fe0ad6f482a8f92739d70828eae88bfa686046b6659df7d2e50a6573",
    "census q8": "f72f0138acad8ea9a2de007f1ecfb27dd5acf1b99b6da137f3bfd735014ffe19",
    "census involution": "42b4b0cc007620006ca9ec7eceb7b41c95bc8aa20aa4f1a6a720627983d1d836",
    "defect-table": "0234f2c27ce1b1f4e497278c45268cb312f7883e270d177caaeca1a26f19bf7d",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_digest_is_pinned(command, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main([*command.split(), "--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[command]
