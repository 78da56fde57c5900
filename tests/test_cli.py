"""Command-line front end: subcommands, exit codes, report artifacts."""

import csv
import json
import os
import re
import subprocess
import sys

import pytest

from pseudosphere.cli import run, DEFAULT_MANIFEST


class TestVerifyAlgebra:
    def test_default_manifest(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify-algebra", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["summary"]["failed"] == 0
        assert report["summary"]["jobs"] == len(report["records"])
        kinds = {r["kind"] for r in report["records"]}
        assert "quantum" in kinds and "linear_relation_metric_independence" in kinds

    def test_custom_manifest(self, tmp_path):
        manifest = dict(DEFAULT_MANIFEST,
                        signatures=[[1, 1, -1]],
                        relations=["symmetry", "qq_c"])
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))
        out = tmp_path / "r.json"
        assert run(["verify-algebra", "--manifest", str(mpath),
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert all(r["passed"] for r in report["records"])

    def test_rationals_serialized_exactly(self, tmp_path):
        out = tmp_path / "report.json"
        run(["verify-algebra", "--out", str(out)])
        report = json.loads(out.read_text())
        rec = next(r for r in report["records"] if r["kind"] == "quantum")
        assert all("/" in x for x in rec["a"])

    def test_malformed_manifest_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["verify-algebra", "--manifest", str(bad)]) == 2


    def test_dim2_manifest_runs_symmetry_only(self, tmp_path):
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"dim": 2, "signatures": "all",
                                     "params": [{"a": ["1/4", "-2/3"]}]}))
        out = tmp_path / "r.json"
        assert run(["verify-algebra", "--manifest", str(mpath),
                    "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert len(records) == 4
        assert all(r["family"] == "symmetry" and r["passed"] for r in records)


INVALID_MANIFESTS = [
    (dict(DEFAULT_MANIFEST, relations=["symmetry", "bogus"]),
     "unknown relation family 'bogus'"),
    (dict(DEFAULT_MANIFEST, signatures=[[1, 1, -1], [1, -1]]),
     "signature (1, -1) has 2 entries, the manifest's dim is 3"),
    (dict(DEFAULT_MANIFEST, params=[{"a": ["1", "2", "3", "4"]}]),
     "params a = (1, 2, 3, 4) has 4 entries, the manifest's dim is 3"),
    (dict(DEFAULT_MANIFEST, params=[{"b": ["1", "2", "3"]}]),
     "params entry {'b': ['1', '2', '3']} has neither 'a' nor 'l'"),
    (dict(DEFAULT_MANIFEST, dim="3"), "dim must be an integer, got '3'"),
    ([], "the manifest must be a JSON object, got []"),
    (dict(DEFAULT_MANIFEST, params={"a": ["1", "2", "3"]}),
     "params must be a list of objects, got {'a': ['1', '2', '3']}"),
    (dict(DEFAULT_MANIFEST, params=[{"a": "123"}]),
     "params entry a must be a list of rationals, got '123'"),
    (dict(DEFAULT_MANIFEST, params=[{"a": ["1", "1/0", "3"]}]),
     "params entry a must be a list of rationals, got ['1', '1/0', '3']"),
    (dict(DEFAULT_MANIFEST, signatures=[[1, 1, -1], 5]), "a signature must be a list, got 5"),
    (dict(DEFAULT_MANIFEST, signatures="+,+,-"), "signatures must be \"all\" or a list, got '+,+,-'"),
    (dict(DEFAULT_MANIFEST, params=[{"l": ["1/2", [1], "3"]}]),
     "params entry l must be a list of rationals, got ['1/2', [1], '3']"),
    (dict(DEFAULT_MANIFEST, relations=5), "relations must be a list of family names, got 5"),
    # JSON floats and booleans are not exact rationals or signs
    (dict(DEFAULT_MANIFEST, params=[{"a": [0.1, "2", 3]}]),
     "params entry a must be a list of rationals, got [0.1, '2', 3]"),
    (dict(DEFAULT_MANIFEST, params=[{"a": [True, "2", 3]}]),
     "params entry a must be a list of rationals, got [True, '2', 3]"),
    (dict(DEFAULT_MANIFEST, signatures=[[1.0, -1, 1]]),
     "metric entries must be the integers +1 and -1, got (1.0, -1, 1)"),
    (dict(DEFAULT_MANIFEST, signatures=[[True, -1, 1]]),
     "metric entries must be the integers +1 and -1, got (True, -1, 1)"),
    (dict(DEFAULT_MANIFEST, dim=True), "dim must be an integer, got True"),
    # a params entry names exactly one of a and l
    (dict(DEFAULT_MANIFEST, params=[{"a": ["1/4", "1/4", "1/4"], "l": ["1/2", "1/2", "13/2"]}]),
     "params entry {'a': ['1/4', '1/4', '1/4'], 'l': ['1/2', '1/2', '13/2']} "
     "has both 'a' and 'l'"),
    # a misspelled key is not ignored
    (dict(DEFAULT_MANIFEST, signature=[[1, 1, -1]]), "unknown manifest key 'signature'"),
    (dict(DEFAULT_MANIFEST, params=[{"a": ["1/4", "1/4", "1/4"], "lx": ["1/2", "1/2", "13/2"]}]),
     "params entry {'a': ['1/4', '1/4', '1/4'], 'lx': ['1/2', '1/2', '13/2']} "
     "has unknown key 'lx'"),
]


@pytest.mark.parametrize("command", ["verify-algebra", "classical-check"])
@pytest.mark.parametrize("manifest,message", INVALID_MANIFESTS)
def test_invalid_manifest_exit_2(command, manifest, message, tmp_path, capsys):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    assert run([command, "--manifest", str(mpath)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"pseudosphere: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["verify-algebra", "classical-check"])
def test_params_length_checked_before_signatures_expand(command, tmp_path, monkeypatch,
                                                         capsys):
    # "all" signatures at dim 40 are 2^40 metrics: a params vector of the
    # wrong length must exit 2 before any of them is built
    from pseudosphere import cli
    metric, built = cli.Metric, []

    def counting_metric(diag):
        built.append(diag)
        assert len(built) <= 100, "the signatures expanded"
        return metric(diag)

    monkeypatch.setattr(cli, "Metric", counting_metric)
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"dim": 40, "signatures": "all",
                                 "params": [{"a": [1, 2, 3]}]}))
    assert run([command, "--manifest", str(mpath)]) == 2
    assert capsys.readouterr().err == \
        "pseudosphere: params a = (1, 2, 3) has 3 entries, the manifest's dim is 40\n"
    assert built == []


NOTHING_TO_CHECK = "the manifest lists no signature or no params vector"


@pytest.mark.parametrize("command", ["verify-algebra", "classical-check"])
@pytest.mark.parametrize("manifest,message", [
    pytest.param(dict(DEFAULT_MANIFEST, signatures=[]), NOTHING_TO_CHECK, id="signatures"),
    pytest.param(dict(DEFAULT_MANIFEST, params=[]), NOTHING_TO_CHECK, id="params"),
    pytest.param({"dim": 2, "signatures": "all", "params": [{"a": ["1", "2"]}],
                  "relations": ["qq_c"]},
                 "no relation family of the manifest applies at dim 2", id="relations"),
])
def test_manifest_with_nothing_to_check_exit_2(command, manifest, message, tmp_path,
                                               capsys):
    # an empty list, or families the dimension does not admit, would give
    # a report with no record, or (verify-algebra) a linear-relation record
    # over no signature
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    assert run([command, "--manifest", str(mpath)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"pseudosphere: {message}\n"
    assert captured.out == ""


class TestClassicalCheck:
    def test_default(self, tmp_path):
        out = tmp_path / "cl.json"
        assert run(["classical-check", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["summary"]["failed"] == 0
        corr = [r for r in report["records"] if r["kind"] == "correspondence"]
        assert corr and all(r["global_sign"] == -1 for r in corr)

    @pytest.mark.parametrize("command", ["classical-check", "verify-algebra"])
    def test_jobs_match_serial(self, command, tmp_path):
        # dim 3: verify-algebra's last task is its linear-relation record
        manifest = dict(DEFAULT_MANIFEST, signatures=[[1, 1, -1], [-1, -1, -1]],
                        relations=["symmetry", "qq_c", "qc_adjacent"])
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))
        reports = []
        for jobs in ("1", "2"):
            out = tmp_path / f"r{jobs}.json"
            assert run([command, "--manifest", str(mpath),
                        "--jobs", jobs, "--out", str(out)]) == 0
            reports.append(re.sub(r'"elapsed_ms": [^,\n]+', '"elapsed_ms": 0',
                                  out.read_text()))
        assert reports[0] == reports[1]
        if command == "verify-algebra":
            last = json.loads(reports[0])["records"][-1]
            assert last["kind"] == "linear_relation_metric_independence"

    def test_dim2_manifest_has_no_correspondence_record(self, tmp_path):
        # below d = 3 there is no generator pair, so no correspondence
        # record (it could only pass vacuously)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"dim": 2, "signatures": "all",
                                     "params": [{"a": ["1/4", "-2/3"]}]}))
        out = tmp_path / "r.json"
        assert run(["classical-check", "--manifest", str(mpath),
                    "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert len(records) == 4
        assert all(r["kind"] == "classical" and r["family"] == "symmetry"
                   and r["passed"] for r in records)


class TestRacahSpectrum:
    def test_h2_worked_example_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["racah-spectrum", "--l", "1/2,1/2,13/2",
                    "--signs", "h2", "--max-p", "8", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [(r["E"], r["degeneracy"]) for r in rows] == \
            [("-12/1", "1"), ("-2/1", "2")]

    def test_empty_table_exit_0(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["racah-spectrum", "--l", "1/2,1/2,2",
                    "--signs", "h2", "--out", str(out)]) == 0
        assert list(csv.DictReader(out.open())) == []

    def test_all_signs_json(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run(["racah-spectrum", "--l", "1/2,1/2,13/2",
                    "--signs", "all", "--max-p", "3", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert rows and all("epsilon1" in r for r in rows)

    def test_bad_l_exit_2(self):
        assert run(["racah-spectrum", "--l", "1/2,1/2"]) == 2


class TestPdeCheck:
    def test_h2(self, tmp_path):
        out = tmp_path / "pde.json"
        assert run(["pde-check", "--surface", "h2", "--l", "1/2,1/2,13/2",
                    "--grid", "2048", "--levels", "3",
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [r["E_analytic"] for r in report["records"]] == \
            ["-12/1", "-2/1"]
        assert all(r["passed"] for r in report["records"])

    def test_s2(self, tmp_path):
        out = tmp_path / "pde.json"
        assert run(["pde-check", "--surface", "s2", "--l", "1/2,1/2,1/2",
                    "--grid", "2048", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert all(r["passed"] for r in report["records"])

    def test_clamped_levels_exit_2(self):
        assert run(["pde-check", "--surface", "s2", "--l", "1/2,1/2,1/2",
                    "--grid", "256", "--levels", "5"]) == 2

    def test_vacuous_exit_1(self, tmp_path):
        out = tmp_path / "pde.json"
        assert run(["pde-check", "--surface", "h2", "--l", "1/2,1/2,2",
                    "--grid", "512", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["vacuous"] and report["records"] == []

    def test_drift_exit_1(self, tmp_path, capsys):
        # l1 = 1/4 < 1/2: the angular solution x^(3/4) is not smooth at the
        # endpoint, its Richardson drift exceeds the default tolerance, and
        # no report is written
        out = tmp_path / "pde.json"
        assert run(["pde-check", "--surface", "s2", "--l", "1/4,1/2,1/2",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert re.fullmatch(r"pde-check: relative drift \S+ exceeds tolerance 1\.00e-06\n", err)
        assert not out.exists()

    @pytest.mark.parametrize("surface,l,E", [("h2", "1/2,1/2,13/2", -5.0),
                                             ("s2", "1/2,1/2,1/2", 20.0)])
    def test_spurious_level_fails(self, tmp_path, monkeypatch, surface, l, E):
        from pseudosphere import specsolver
        solve = specsolver.pde_spectrum

        def with_extra_level(*args, **kwargs):
            extra = specsolver.SpectrumLevel(E=E, n=0, m=0, P=0, degeneracy=1,
                                             method="numeric")
            return solve(*args, **kwargs) + [extra]

        monkeypatch.setattr(specsolver, "pde_spectrum", with_extra_level)
        out = tmp_path / "pde.json"
        assert run(["pde-check", "--surface", surface, "--l", l,
                    "--grid", "1024", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        spurious = [r for r in report["records"] if r["E_analytic"] is None]
        assert [(r["E_numeric"], r["passed"]) for r in spurious] == [(E, False)]
        assert not report["vacuous"]
        assert all(r["passed"] for r in report["records"]
                   if r["E_analytic"] is not None)


    def test_s2_incomplete_shell_fails(self, tmp_path, monkeypatch):
        # a complete S^2 shell P < counts has P + 1 levels: one level of the
        # P = 2 shell dropped leaves multiplicity 2 against degeneracy 3
        from pseudosphere import specsolver
        solve = specsolver.pde_spectrum

        def without_one_level(*args, **kwargs):
            levels = solve(*args, **kwargs)
            drop = next(lv for lv in levels if lv.P == 2)
            return [lv for lv in levels if lv is not drop]

        monkeypatch.setattr(specsolver, "pde_spectrum", without_one_level)
        out = tmp_path / "pde.json"
        assert run(["pde-check", "--surface", "s2", "--l", "1/2,1/2,1/2",
                    "--grid", "1024", "--out", str(out)]) == 1
        records = json.loads(out.read_text())["records"]
        assert [(r["P"], r["multiplicity"], r["degeneracy"], r["passed"])
                for r in records] == [(0, 1, 1, True), (1, 2, 2, True),
                                      (2, 2, 3, False)]

    @pytest.mark.parametrize("surface,l,flipped", [
        ("h2", "1/2,1/2,13/2", "-1/2,1/2,13/2"),
        ("s2", "1/2,3/2,1/2", "1/2,-3/2,1/2"),
    ])
    def test_sign_of_l_ignored(self, tmp_path, surface, l, flipped):
        # H depends on l_i^2 only: flipping an l_i changes the report's
        # "l" and nothing else
        reports = []
        for arg in (l, flipped):
            out = tmp_path / "pde.json"
            assert run(["pde-check", "--surface", surface, f"--l={arg}",
                        "--grid", "256", "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[0].pop("l") != reports[1].pop("l")
        assert reports[0] == reports[1]

    def test_h2_more_levels_than_counts(self, tmp_path):
        # six bound levels and --counts 3: the complete shells P < 3 are
        # checked, the incomplete shells above them are not
        out = tmp_path / "pde.json"
        assert run(["pde-check", "--surface", "h2", "--l", "1/2,1/2,29/2",
                    "--grid", "512", "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert [(r["P"], r["E_analytic"], r["multiplicity"], r["passed"])
                for r in records] == [(0, "-132/1", 1, True),
                                      (1, "-90/1", 2, True),
                                      (2, "-56/1", 3, True)]


class TestCrossCheck:
    def test_h2_unique_match(self, tmp_path):
        out = tmp_path / "x.json"
        assert run(["cross-check", "--l", "1/2,1/2,13/2",
                    "--signature", "+,+,-", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["matches"] == [{"signs": [-1, -1, 1], "global_flip": 1}]

    def test_s2_global_flip(self, tmp_path):
        out = tmp_path / "x.json"
        assert run(["cross-check", "--l", "1/2,1/2,1/2",
                    "--signature", "+,+,+", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert {"signs": [-1, -1, -1], "global_flip": -1} in report["matches"]

    def test_vacuous_flagged(self, tmp_path):
        # no H^2 level: every pattern with no solution would match
        out = tmp_path / "x.json"
        assert run(["cross-check", "--l", "1/2,1/2,2",
                    "--signature", "+,+,-", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["vacuous"] and not report["passed"]

    def test_signature_value_starting_with_minus(self, tmp_path):
        # "--signature -,-,-" (no "=") must read -,-,- as the value
        reports = []
        for argv in (["--signature", "-,-,-"], ["--sig", "-,-,-"],
                     ["--signature=-,-,-"]):
            out = tmp_path / "x.json"
            assert run(["cross-check", "--l", "1/2,1/2,1/2", *argv,
                        "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[0] == reports[1] == reports[2]
        assert reports[0]["signature"] == [-1, -1, -1]

    def test_bad_signature_exit_2(self):
        assert run(["cross-check", "--l", "1/2,1/2,2",
                    "--signature", "+,0,-"]) == 2


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["racah-spectrum", "--l", "1/2,1/2,13/2", "--max-p", "-1"],
        ["cross-check", "--l", "1/2,1/2,3/2", "--signature=+,+,-", "--max-p", "-1"],
        ["verify-algebra", "--jobs", "-2"],
        ["verify-algebra", "--jobs", "0"],
        ["classical-check", "--jobs", "-2"],
    ], ids=lambda argv: " ".join(argv[i] for i in (0, -2, -1)))
    def test_negative_count_exit_2(self, argv, capsys):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and argv[-2] in err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_subcommand(self, capsys):
        assert run([]) == 2
        capsys.readouterr()


def test_cli_import_loads_no_numerics():
    # numpy and scipy load on first use of a specsolver name, not on import
    code = ("import sys, pseudosphere.cli\n"
            "assert not {'numpy', 'scipy'} & set(sys.modules), sorted(sys.modules)\n"
            "from pseudosphere import pde_spectrum, GridSpec\n"
            "assert GridSpec.__module__ == 'pseudosphere.specsolver' and callable(pde_spectrum)\n"
            "assert 'scipy' in sys.modules\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_exact_commands_run_without_numerics():
    # with numpy and scipy unimportable, racah-spectrum and cross-check
    # still reproduce their golden reports and exit codes
    code = ("import sys\n"
            "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
            "import json, tempfile\n"
            "from pathlib import Path\n"
            "from test_golden import COMMANDS, GOLDEN_DIR, regenerate\n"
            "names = [n for n in sorted(COMMANDS)\n"
            "         if n.startswith(('racah-spectrum-', 'cross-check-'))]\n"
            "assert len(names) == 7, names\n"
            "with tempfile.TemporaryDirectory() as tmp:\n"
            "    for name in names:\n"
            "        want = json.loads((GOLDEN_DIR / f'{name}.json').read_text())\n"
            "        assert regenerate(name, Path(tmp)) == want, name\n")
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, tests, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
