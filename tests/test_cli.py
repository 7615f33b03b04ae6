import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import k3census
from k3census import cli, kummer

SRC = Path(k3census.__file__).resolve().parents[1]


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys)[0] == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "lemma-9.9"])
    assert exc.value.code == 2


@pytest.mark.parametrize("target", sorted(cli.VERIFIERS))
def test_verify_subcommands_pass(capsys, target):
    code, out, _ = run_cli(capsys, "verify", target)
    assert code == 0
    assert "status: pass" in out


def test_verify_lemma_6_4_prints_polynomial(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma-6.4")
    assert code == 0
    assert "t^2 - 4*t - 1" in out


def test_census_subcommands(capsys):
    for target in ("p5", "p7", "q8", "involution"):
        code, out, _ = run_cli(capsys, "census", target)
        assert code == 0, target


def test_defect_table(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "defect-table")
    assert code == 0
    payload = json.loads(out)
    assert payload["point_defects"]["I_5_1"] == "-4"
    assert payload["group_totals"]["p=5 type A4~"] == "-20"


def test_json_output_round_trips(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "census", "p5", "--format", "json",
                         "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["survivors"] == ["c", "i", "iii"]
    assert payload["timings"] is None
    # byte determinism
    out_file2 = tmp_path / "report2.json"
    run_cli(capsys, "census", "p5", "--format", "json", "--out", str(out_file2))
    assert out_file.read_text() == out_file2.read_text()


def _census_bytes(tmp_path, *extra):
    out = tmp_path / "report.json"
    assert cli.main(["census", "p7", "--format", "json", "--out", str(out), *extra]) == 0
    return out.read_bytes()


def test_digits_reach_the_census_decimals(tmp_path):
    # census decimals follow --digits up to the five published places, the
    # rule defect-table applies
    default = _census_bytes(tmp_path)
    assert _census_bytes(tmp_path, "--digits", "5") == default
    assert _census_bytes(tmp_path, "--digits", "15") == default
    one = json.loads(_census_bytes(tmp_path, "--digits", "1"))
    assert one["delta_table"]["1"]["1"] == "4.3"
    assert one["nu_table"]["3"]["2"] == "-1.8"
    assert "(-5.6)" in next(f["detail"] for f in one["filters"] if f["filter"] == "fang"
                            and f["verdict"] == "survives")


def test_corrupted_pairing_table_fails(capsys, monkeypatch):
    real = kummer._pair_gens

    def corrupted(a, b):
        if a[0] == "P" and b[0] == "P" and a != b and a[1] != b[1] and a[2] == b[2]:
            return 1  # flip the cross-fibration value
        return real(a, b)

    monkeypatch.setattr(kummer, "_pair_gens", corrupted)
    code, out, err = run_cli(capsys, "verify", "lemma-4.2")
    assert code == 1
    assert "FAIL" in err and "Gram" in err


def test_flags_accepted_before_and_after_subcommand(capsys):
    c1, o1, _ = run_cli(capsys, "--format", "json", "verify", "lemma-6.4")
    c2, o2, _ = run_cli(capsys, "verify", "lemma-6.4", "--format", "json")
    assert c1 == c2 == 0
    assert json.loads(o1) == json.loads(o2)


def test_exhausted_budget_is_inconclusive(capsys):
    code, out, err = run_cli(capsys, "--budget", "10", "verify", "theorem-1.7")
    assert code == 3
    assert out == ""
    assert err.startswith("INCONCLUSIVE: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_q8_budget_threshold(capsys):
    # the Q8 search charges one unit per pair tested: a runs over the 6 and 1
    # orbit representatives among the 528 and 48 square roots, b over all
    assert run_cli(capsys, "census", "q8", "--budget", "3216")[0] == 0
    code, _, err = run_cli(capsys, "census", "q8", "--budget", "3215")
    assert code == 3 and err.startswith("INCONCLUSIVE: ")


@pytest.mark.parametrize("argv,stats", [
    (("verify", "theorem-1.7"), {"z2_4_units": 10450, "q8_units": 3216,
                                 "z2_4_orbits": [2, 3], "q8_orbits": [6, 1]}),
    (("census", "q8"), {"q8_units": 3216, "q8_orbits": [6, 1]})])
def test_search_reports_carry_budget_units(capsys, argv, stats):
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    assert json.loads(out)["stats"] == stats


def test_unwritable_out_is_an_io_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "verify", "lemma-6.4", "--out", str(target))
    assert code == 2
    assert err.startswith("ERROR: ") and err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("flags", [("--budget", "0"), ("--budget", "-5"),
                                   ("--budget", "x"), ("--digits", "0"),
                                   ("--digits", "-3")])
def test_bad_numeric_flags_rejected_at_parse_time(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        cli.main([*flags, "verify", "lemma-6.4"])
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err


def test_checks_run_under_optimized_python(run_optimized):
    res = run_optimized("-m", "k3census", "verify", "theorem-1.7")
    assert res.returncode == 0, res.stderr
    assert "status: pass" in res.stdout


@pytest.mark.parametrize("argv", [("census", "p5"), ("census", "p7"), ("defect-table",),
                                  ("verify", "lemma-4.5"), ("verify", "lemma-6.3"),
                                  ("verify", "lemma-6.5"), ("verify", "lemma-5.2"),
                                  ("census", "q8")])
def test_census_runs_under_optimized_python(run_optimized, argv):
    res = run_optimized("-m", "k3census", *argv)
    assert res.returncode == 0, res.stderr
    assert "status: pass" in res.stdout


def _run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # each subcommand runs in a new process, so what `import k3census.cli`
    # pulls in is paid on every run; -S keeps site hooks of the environment
    # (such as .pth files importing importlib.resources) out of the count
    code = "import sys, k3census.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    res = _run_python("-S", "-c", code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
    for path in sorted((SRC / "k3census").glob("*.py")):
        assert "dataclasses" not in path.read_text(), path.name


MPMATH_BLOCKED = ("import sys; sys.modules['mpmath'] = None; from k3census import cli; "
                  "sys.exit(cli.main(sys.argv[1:]))")


@pytest.mark.parametrize("argv", [("census", "p5"), ("census", "p7"),
                                  ("defect-table", "--digits", "15")])
def test_reports_need_no_mpmath(argv, tmp_path):
    # an import of mpmath fails in this process; the digests are the pinned
    # ones (defect-table defaults to --digits 15)
    from test_golden_reports import GOLDEN

    out = tmp_path / "report.json"
    res = _run_python("-c", MPMATH_BLOCKED, *argv, "--format", "json", "--out", str(out))
    assert res.returncode == 0, res.stderr
    command = " ".join(a for a in argv if a[0].isalpha())
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[command]


def test_census_run_leaves_out_mpmath(tmp_path):
    code = ("import sys; from k3census import cli; "
            "code = cli.main(['census', 'p7', '--out', sys.argv[1]]); "
            "print(code, 'mpmath' in sys.modules)")
    res = _run_python("-c", code, str(tmp_path / "report.txt"))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "0 False"
