import ast
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chn2
import chn2.cli
from chn2.cli import main, parse_centers, parse_seed_range, parse_window
from chn2.hierarchy import load_hierarchy
from chn2.pointprocess import load_sample


def run(*argv):
    return main([str(a) for a in argv])


def test_package_version_is_the_projects():
    # Artifacts record chn2.__version__ as their provenance; it must be the
    # version the project declares. A regex, since tomllib needs Python 3.11.
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    declared = re.findall(r'(?m)^version\s*=\s*"([^"]+)"', text)
    assert declared == [chn2.__version__]


def test_every_third_party_import_is_declared():
    # An import of a package that pyproject.toml does not declare would ship
    # a chn2 that fails to import where only the declared ones are installed.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    root = Path(__file__).parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9._-]+", spec).group().lower().replace("_", "-")
        for spec in project["dependencies"]
    }
    imported = set()
    for source in (root / "src" / "chn2").glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"chn2"}
    assert third_party >= {"numpy", "orjson", "scipy"}
    assert {name.lower().replace("_", "-") for name in third_party} <= declared


def test_parse_window():
    w = parse_window("0,0,110,110")
    assert w.dim == 2
    assert w.lo.tolist() == [0.0, 0.0]
    assert w.hi.tolist() == [110.0, 110.0]
    with pytest.raises(Exception):
        parse_window("0,0,110")


def test_parse_centers_and_seeds():
    c = parse_centers("60,60;140,80;100,150")
    assert c.shape == (3, 2)
    assert parse_seed_range("3..6") == [3, 4, 5, 6]
    assert parse_seed_range("9") == [9]
    for text in ("1,2;3", ";", ""):
        with pytest.raises(ValueError, match="malformed centers"):
            parse_centers(text)
    with pytest.raises(ValueError, match="empty seed range '5..3'"):
        parse_seed_range("5..3")
    for text in ("5..", "..5", "x", "1..y", ""):
        with pytest.raises(ValueError, match=r"--seeds takes a\.\.b or one seed"):
            parse_seed_range(text)


def test_generate_poisson_roundtrip(tmp_path):
    out = tmp_path / "s.json"
    assert run("generate", "poisson", "--lambda", 1, "--window", "0,0,110,110",
               "--seed", 7, "--out", out) == 0
    s = load_sample(out)
    assert s.dim == 2
    assert s.generator["kind"] == "poisson"
    assert s.window.contains(s.points).all()
    # determinism down to the bytes
    first = out.read_bytes()
    assert run("generate", "poisson", "--lambda", 1, "--window", "0,0,110,110",
               "--seed", 7, "--out", out) == 0
    assert out.read_bytes() == first


def test_generate_empty_sample_warns(tmp_path, capsys):
    # The ball lies inside the window but catches no draw.
    out = tmp_path / "s.json"
    assert run("generate", "cox", "--centers", "5,5", "--radii", 0.01, "--lambda", 0.5,
               "--window", "0,0,10,10", "--seed", 1, "--out", out) == 0
    assert capsys.readouterr().err == "warning: the sample is empty\n"
    obj = json.loads(out.read_text())
    assert obj["points"] == [] and "warning" not in obj
    assert run("generate", "poisson", "--lambda", 0, "--window", "0,0,10,10",
               "--seed", 1, "--out", out) == 0
    assert capsys.readouterr().err == "warning: the sample is empty\n"
    assert run("generate", "poisson", "--lambda", 0.5, "--window", "0,0,10,10",
               "--seed", 1, "--out", out) == 0
    assert capsys.readouterr().err == ""


COX_MODES = {
    "fixed": ["--centers", "5,5", "--radii", 2],
    "random": ["--center-intensity", 0.05, "--radius-range", "1,2"],
}


@pytest.mark.parametrize("mode", sorted(COX_MODES))
def test_generate_cox_intensity_zero_warns_negative_and_nan_refused(tmp_path, capsys, mode):
    # As for poisson, --lambda 0 writes an empty sample with the warning.
    out = tmp_path / "s.json"
    common = ["generate", "cox", *COX_MODES[mode], "--window", "0,0,10,10", "--seed", 1]
    assert run(*common, "--lambda", 0, "--out", out) == 0
    assert capsys.readouterr().err == "warning: the sample is empty\n"
    assert json.loads(out.read_text())["points"] == []
    for lam in ("-1", "nan"):
        assert run(*common, "--lambda", lam, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cox intensity lam must be nonnegative"), err
        assert err.count("\n") == 1, err


@pytest.mark.parametrize("text", ["1", "a,b", "1,2,3", ""])
def test_generate_cox_radius_range_needs_two_numbers(tmp_path, capsys, text):
    assert run("generate", "cox", "--center-intensity", 0.05, "--radius-range", text,
               "--window", "0,0,10,10", "--seed", 1, "--out", tmp_path / "s.json") == 1
    err = capsys.readouterr().err
    assert err == f"error: --radius-range needs two numbers r_min,r_max, got {text!r}\n"


def test_generate_cox_radii_without_centers_is_fixed_mode(tmp_path, capsys):
    assert run("generate", "cox", "--radii", 5, "--window", "0,0,10,10", "--seed", 1,
               "--out", tmp_path / "s.json") == 1
    assert capsys.readouterr().err == "error: fixed mode needs centers\n"


# Each process's own flags, so that only the flag under test is out of place.
OWN_FLAGS = {"poisson": [], "binomial": ["--count", 50], "cox": ["--centers", "5,5", "--radii", 2]}


@pytest.mark.parametrize("process, flag, value, reader", [
    ("poisson", "--count", 5, "binomial"),
    ("cox", "--count", 5, "binomial"),
    *[(process, flag, value, "cox") for process in ("poisson", "binomial") for flag, value in (
        ("--centers", "5,5"), ("--radii", 2), ("--center-intensity", 0.1),
        ("--radius-range", "1,2"),
    )],
])
def test_generate_refuses_flags_the_process_does_not_read(
    tmp_path, capsys, process, flag, value, reader
):
    out = tmp_path / "s.json"
    assert run("generate", process, *OWN_FLAGS[process], flag, value,
               "--window", "0,0,10,10", "--seed", 1, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"error: {process} does not read {flag} (only {reader} does)\n"
    assert not out.exists()
    assert run("generate", process, *OWN_FLAGS[process],
               "--window", "0,0,10,10", "--seed", 1, "--out", out) == 0


def test_generate_cox_documented_example(tmp_path):
    out = tmp_path / "cox.json"
    assert run("generate", "cox", "--centers", "60,60;140,80;100,150",
               "--radii", "40,20,30", "--lambda", 0.2, "--window", "0,0,200,200",
               "--seed", 1, "--out", out) == 0
    s = load_sample(out)
    assert 1500 <= s.n <= 2300
    centers = np.array([[60, 60], [140, 80], [100, 150]], float)
    radii = np.array([40.0, 20.0, 30.0])
    inside = np.zeros(s.n, bool)
    for c, r in zip(centers, radii):
        inside |= np.linalg.norm(s.points - c, axis=1) <= r
    assert inside.all()


def test_cluster_and_stats_pipeline(tmp_path):
    sample = tmp_path / "s.json"
    hier = tmp_path / "h.json"
    nwk = tmp_path / "h.nwk"
    levels = tmp_path / "levels.csv"
    with open(sample, "w") as fh:
        json.dump(
            {
                "dim": 1,
                "window": {"lo": [-100.0], "hi": [100.0]},
                "seed": 0,
                "generator": {"kind": "manual"},
                "points": [0.0, 1.0, 5.0, 6.0, 20.0],
            },
            fh,
        )
    assert run("cluster", "--input", sample, "--out", hier, "--newick", nwk) == 0
    h = load_hierarchy(hier)
    assert h.termination == "single_pair"
    assert len(h.levels) - 1 == 1
    assert nwk.read_text().strip() == "(P0:1,P1:1)L1_0;"

    assert run("stats", "--hierarchy", hier, "--out", levels) == 0
    rows = list(csv.DictReader(levels.open()))
    assert len(rows) == 2
    assert float(rows[0]["mean_merge_distance"]) == 4.0


def test_cluster_stats_same_for_pretty_sample_file(tmp_path):
    # The hierarchy file keeps the sample file's own text; a pretty-printed
    # file with integer bounds must give the same levels as the compact one.
    assert run("generate", "binomial", "--count", 400, "--window", "0,0,10,10",
               "--seed", 5, "--out", tmp_path / "compact.json") == 0
    obj = json.loads((tmp_path / "compact.json").read_text())
    obj["window"] = {"lo": [0, 0], "hi": [10, 10]}
    (tmp_path / "pretty.json").write_text(json.dumps(obj, indent=4))
    csvs = []
    for name in ("compact", "pretty"):
        hier, levels = tmp_path / f"h_{name}.json", tmp_path / f"levels_{name}.csv"
        assert run("cluster", "--input", tmp_path / f"{name}.json", "--out", hier) == 0
        assert run("stats", "--hierarchy", hier, "--out", levels) == 0
        csvs.append(levels.read_bytes())
    assert '"lo": [\n' in (tmp_path / "h_pretty.json").read_text()
    assert csvs[0] == csvs[1] and len(csvs[0].splitlines()) > 2


def test_cluster_two_points(tmp_path):
    sample = tmp_path / "s.json"
    hier = tmp_path / "h.json"
    with open(sample, "w") as fh:
        json.dump(
            {
                "dim": 1,
                "window": {"lo": [0.0], "hi": [10.0]},
                "seed": 0,
                "generator": {"kind": "manual"},
                "points": [1.0, 2.0],
            },
            fh,
        )
    assert run("cluster", "--input", sample, "--out", hier) == 0
    h = load_hierarchy(hier)
    assert len(h.levels) - 1 == 0
    assert h.levels[0].n_components == 1


def test_detect_identical_files_yields_none(tmp_path, capsys):
    sample = tmp_path / "s.json"
    hier = tmp_path / "h.json"
    levels = tmp_path / "levels.csv"
    det = tmp_path / "det.csv"
    assert run("generate", "binomial", "--count", 300, "--window", "0,0,40,40",
               "--seed", 3, "--out", sample) == 0
    assert run("cluster", "--input", sample, "--out", hier) == 0
    assert run("stats", "--hierarchy", hier, "--out", levels) == 0
    assert run("detect", "--target", levels, "--baseline", levels,
               "--tau", 0.3, "--out", det) == 0
    out = capsys.readouterr().out
    assert "no aggregation detected" in out
    rows = list(csv.DictReader(det.open()))
    assert all(r["detected_flag"] == "0" for r in rows)


def test_detect_fires_on_aggregated_sample(tmp_path, capsys):
    sample = tmp_path / "fix.json"
    hier = tmp_path / "fix-h.json"
    levels = tmp_path / "fix-levels.csv"
    base = tmp_path / "base.csv"
    det = tmp_path / "det.csv"
    assert run("generate", "cox", "--centers", "45,45;175,45;110,165",
               "--radii", "40,20,30", "--lambda", 0.22,
               "--window", "0,0,200,200", "--seed", 11, "--out", sample) == 0
    assert run("cluster", "--input", sample, "--out", hier) == 0
    assert run("stats", "--hierarchy", hier, "--out", levels) == 0
    assert run("baseline", "--window", "0,0,200,200", "--count", 1995,
               "--seeds", "0..4", "--out", base) == 0
    assert run("detect", "--target", levels, "--baseline", base,
               "--tau", 0.3, "--out", det) == 0
    assert "aggregation detected at level 4" in capsys.readouterr().out
    rows = list(csv.DictReader(det.open()))
    assert [r["detected_flag"] for r in rows].count("1") >= 1


def test_baseline_command(tmp_path):
    out = tmp_path / "base.csv"
    assert run("baseline", "--window", "0,0,30,30", "--count", 200,
               "--seeds", "0..3", "--out", out) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) >= 2
    assert float(rows[0]["mean_merge_distance"]) > 0
    assert rows[0]["support"] == "4"  # all four seeds reach level 0


def test_chains_formula_output(tmp_path, capsys):
    assert run("chains", "formula", "--lambda", 1, "--R", 1, "--dim", 2,
               "--n", 2) == 0
    out = capsys.readouterr().out
    row = out.splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(math.pi**2)
    assert float(row[2]) == pytest.approx(math.pi**2, rel=1e-12)


@pytest.mark.parametrize("flag", ["--trials", "--seed"])
def test_chains_formula_refuses_the_mc_flags(flag, tmp_path, capsys):
    out = tmp_path / "chains.csv"
    assert run("chains", "formula", "--n", 2, flag, 5, "--out", out) == 1
    assert capsys.readouterr().err == f"error: formula does not read {flag} (only mc does)\n"
    assert not out.exists()


def test_chains_mc_defaults_write_the_same_csv(tmp_path):
    # --trials 10000 and --seed 0 unless given, as when both flags had these
    # defaults in every mode; the text is the one the earlier defaults wrote.
    out = tmp_path / "chains.csv"
    assert run("chains", "mc", "--dim", 1, "--n", 1, 2, "--out", out) == 0
    assert out.read_text() == (
        "n,closed_form,recursive,mc_mean,mc_stderr,trials\n"
        "1,1.9999999999999998,1.9999999999999998,1.979,0.014041211328142462,10000\n"
        "2,3.999999999999999,3.999999999999999,3.9525,0.05534862890869301,10000\n"
    )


def test_chains_formula_beyond_float_range(capsys):
    assert run("chains", "formula", "--n", 400) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[0] == "400" and 0 < float(row[1]) < 1e-170 and 0 < float(row[2]) < 1e-170
    assert run("chains", "formula", "--lambda", 100, "--n", 400) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[:3] == ["400", "inf", "inf"]
    # lam w_d R^d = pi 1e100, though R^d alone is past float range
    assert run("chains", "formula", "--n", 3, "--R", 1e200, "--lambda", 1e-300) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(math.pi**3 * 1e300, rel=1e-12)


def test_chains_mc_beyond_float_range_is_one_error_line(capsys):
    assert run("chains", "mc", "--n", 400) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_POINTS_PER_TRIAL" in err and err.count("\n") == 1, err


def test_chains_mc_csv(tmp_path):
    out = tmp_path / "chains.csv"
    assert run("chains", "mc", "--lambda", 1, "--R", 1, "--dim", 1,
               "--n", 1, 2, "--trials", 200, "--seed", 5, "--out", out) == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["n"] for r in rows] == ["1", "2"]
    for r in rows:
        mean, stderr = float(r["mc_mean"]), float(r["mc_stderr"])
        assert abs(mean - float(r["recursive"])) <= 4 * stderr


def test_chains_mc_budget_is_one_error_line(monkeypatch, capsys):
    import chn2.chains

    def no_trials(*args):
        raise AssertionError("a trial was drawn before the budget check")

    monkeypatch.setattr(chn2.chains, "_block_points", no_trials)
    for lam, n, bound in ((1000, 4, "MAX_POINTS_PER_TRIAL"), (100, 2, "MAX_PARTIAL_CHAINS")):
        assert run("chains", "mc", "--lambda", lam, "--n", n, "--trials", 10**9) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and bound in err and err.count("\n") == 1, err


def test_chains_bad_out_fails_before_drawing(monkeypatch, capsys, tmp_path):
    import chn2.chains

    def no_trials(*args):
        raise AssertionError("a trial was drawn before --out was opened")

    monkeypatch.setattr(chn2.chains, "_block_points", no_trials)
    bad = tmp_path / "missing" / "chains.csv"
    assert run("chains", "mc", "--n", 2, 4, "--trials", 10**9, "--out", bad) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and err.count("\n") == 1, err
    # a configuration the budget refuses leaves no file, even after one it admits
    out = tmp_path / "chains.csv"
    for argv in (["--lambda", 100, "--n", 2], ["--n", 1, 400], ["--seed", -1, "--n", 2]):
        assert run("chains", "mc", *argv, "--trials", 10**9, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not out.exists()


TINY_WINDOW = "1,1.000000000000001"  # about five representable floats wide

# numpy's own refusals of a Poisson mean or a seed
NUMPY_WORDING = ("lam value too large", "lam < 0 or lam is NaN", "expected non-negative integer")


@pytest.mark.parametrize("argv, code", [
    (["generate", "binomial", "--count", "10", "--window", TINY_WINDOW], 1),
    (["generate", "poisson", "--lambda", "1e16", "--window", TINY_WINDOW], 0),
    (["chains", "formula", "--dim", "400", "--n", "2"], 0),
    (["chains", "formula", "--R", "1e200", "--n", "2"], 0),
    (["chains", "mc", "--R", "1e200", "--n", "2"], 1),
    (["chains", "formula", "--lambda", "-1", "--n", "2"], 1),
    (["chains", "formula", "--R", "-1", "--dim", "3", "--n", "1"], 1),
    (["chains", "formula", "--lambda", "nan", "--n", "2"], 1),
    (["chains", "formula", "--lambda", "0", "--R", "inf", "--n", "2"], 1),
    (["chains", "formula", "--lambda", "inf", "--R", "0", "--n", "2"], 1),
    (["chains", "mc", "--lambda", "nan", "--n", "2"], 1),
    (["generate", "poisson", "--lambda", "nan", "--window", "0,0,1,1"], 1),
    (["baseline", "--window", "0,0,1,1", "--count", "nan", "--seeds", "0"], 1),
    # allocations numpy refuses at once, without touching memory
    (["generate", "binomial", "--count", "10000000000000", "--window", "0,0,10,10"], 1),
    (["baseline", "--window", "0,0,10,10", "--count", "1e12", "--seeds", "0..0"], 1),
    # squared distances overflow or underflow to 0, or the volume underflows
    # to 0 or overflows to inf
    (["baseline", "--window", "0,0,1e200,1e-200", "--count", "30", "--seeds", "0..5"], 1),
    (["baseline", "--window", "0,1e-300", "--count", "30", "--seeds", "0..5"], 1),
    (["baseline", "--window", "0,0,1e-200,1e-200", "--count", "30", "--seeds", "0..5"], 1),
    (["baseline", "--window", "0,0,1e155,1e155", "--count", "30", "--seeds", "0..5"], 1),
    (["generate", "poisson", "--lambda", "1", "--window", "0,0,1e155,1e155"], 1),
    (["generate", "cox", "--centers", "1,1", "--radii", "1", "--window", "0,0,1e155,1e155"], 1),
    # large and tiny windows that still work, lifted blocks included
    (["baseline", "--window", "0,0,1e153,1e153", "--count", "30", "--seeds", "0..5"], 0),
    (["baseline", "--window", "0,0,1e-150,1e-150", "--count", "30", "--seeds", "0..5"], 0),
    # Poisson means and seeds that numpy refuses
    (["generate", "poisson", "--lambda", "inf", "--window", "0,0,10,10"], 1),
    (["generate", "poisson", "--lambda", "1e300", "--window", "0,0,10,10"], 1),
    (["generate", "cox", "--lambda", "1e300", "--centers", "1,1", "--radii", "1",
      "--window", "0,0,10,10"], 1),
    (["generate", "cox", "--center-intensity", "1e300", "--radius-range", "1,2",
      "--window", "0,0,10,10"], 1),
    (["baseline", "--window", "0,0,10,10", "--count", "inf", "--seeds", "0..1"], 1),
    (["generate", "cox", "--center-intensity", "-1", "--radius-range", "1,2",
      "--window", "0,0,10,10"], 1),
    (["generate", "cox", "--center-intensity", "nan", "--radius-range", "1,2",
      "--window", "0,0,10,10"], 1),
    (["generate", "poisson", "--window", "0,0,10,10", "--seed", "-1"], 1),
    (["chains", "mc", "--n", "2", "--seed", "-1", "--trials", "5"], 1),
    (["baseline", "--window", "0,0,10,10", "--count", "10", "--seeds=-5..-3"], 1),
    # a Cox spec of both modes, and an infinite largest radius
    (["generate", "cox", "--centers", "5,5", "--radii", "2", "--center-intensity", "5",
      "--radius-range", "1,2", "--window", "0,0,10,10"], 1),
    (["generate", "cox", "--center-intensity", "5", "--radius-range", "1,inf",
      "--window", "0,0,10,10"], 1),
    # fixed balls that are not finite, which would thin to nothing or to all
    (["generate", "cox", "--centers", "nan,nan", "--radii", "5", "--window", "0,0,10,10"], 1),
    (["generate", "cox", "--centers", "inf,inf", "--radii", "5", "--window", "0,0,10,10"], 1),
    (["generate", "cox", "--centers", "5,5", "--radii", "inf", "--window", "0,0,10,10"], 1),
    # the expected count passes float range on the way (chains._ball_mass)
    (["chains", "formula", "--n", "2", "--R", "1e200", "--lambda", "1e-300"], 0),
    # a product that has left float range, and trials whose chains all end
    # at once, stop early instead of stepping through every length
    (["chains", "formula", "--n", "1000000000000"], 0),
    (["chains", "mc", "--n", "100000000", "--lambda", "1e-30", "--trials", "10"], 0),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_cli_extreme_inputs_give_a_row_or_one_error_line(argv, code, tmp_path):
    """In a fresh process with a deadline: a hang or a traceback fails, and
    so does an error line in numpy's words rather than the program's."""
    out = tmp_path / "out"
    if argv[0] != "chains":
        seed = ["--seed", "1"] if argv[0] == "generate" and "--seed" not in argv else []
        argv = argv + ["--out", str(out)] + seed
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "chn2.cli", *argv], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == code, proc.stderr
    if code == 1:
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
        assert not any(words in proc.stderr for words in NUMPY_WORDING), proc.stderr
    elif argv[0] == "chains":
        header, row = proc.stdout.splitlines()
        n = argv[argv.index("--n") + 1]
        assert header.startswith("n,closed_form,recursive") and row.startswith(f"{n},")
        assert all(not math.isnan(float(v)) for v in row.split(",")[:3]), row
    elif argv[0] == "baseline":
        rows = list(csv.DictReader(out.open()))
        assert rows and all(float(r["mean_merge_distance"]) > 0 for r in rows), rows
    else:
        assert load_sample(out).n >= 1


@pytest.mark.parametrize("exc, line", [
    (MemoryError(), "error: out of memory (MemoryError)\n"),
    (ValueError(), "error: failed (ValueError)\n"),
    (MemoryError("no room"), "error: no room\n"),
])
def test_error_without_a_message_names_itself(exc, line, monkeypatch, tmp_path, capsys):
    # A seed range too long for memory raises a MemoryError with no message.
    # Raised here in place of a real allocation, which could take gigabytes.
    def parse_seed_range(text):
        raise exc

    monkeypatch.setattr(chn2.cli, "parse_seed_range", parse_seed_range)
    assert run("baseline", "--window", "0,0,10,10", "--count", 50,
               "--seeds", "1..99999999999999", "--out", tmp_path / "b.csv") == 1
    assert capsys.readouterr().err == line


@pytest.mark.parametrize("window, generator, failing", [
    ("0,0,1e200,1e-200", ["poisson", "--lambda", "1"], "cluster"),  # distances overflow
    ("0,0,1e-200,1e-200", ["binomial", "--count", "5"], "cluster"),  # distances underflow
    ("0,0,0,1e-120,1e-120,1e-120", ["binomial", "--count", "5"], "stats"),  # the volume is 0
    ("0,1e-300", ["binomial", "--count", "30"], "cluster"),  # distances underflow to 0
])
def test_extreme_window_fails_one_step_with_one_error_line(
    window, generator, failing, tmp_path, capsys
):
    sample, hier = tmp_path / "s.json", tmp_path / "h.json"
    steps = [
        ["generate", *generator, "--window", window, "--seed", 1, "--out", sample],
        ["cluster", "--input", sample, "--out", hier],
        ["stats", "--hierarchy", hier, "--out", tmp_path / "l.csv"],
    ]
    *passing, last = steps[: [argv[0] for argv in steps].index(failing) + 1]
    for argv in passing:
        assert run(*argv) == 0
    capsys.readouterr()
    assert run(*last) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_detect_target_without_series_column_is_one_error_line(tmp_path, capsys):
    target = tmp_path / "target.csv"
    target.write_text("level,foo\n0,1.5\n1,2.5\n")
    base = tmp_path / "base.csv"
    base.write_text("level,mean_merge_distance\n0,1.0\n1,2.0\n")
    assert run("detect", "--target", target, "--baseline", base,
               "--out", tmp_path / "det.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mean_merge_distance" in err, err
    assert err.count("\n") == 1, err


def test_bad_input_nonzero_exit(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run("cluster", "--input", missing, "--out", tmp_path / "h.json") == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2}')
    assert run("cluster", "--input", bad, "--out", tmp_path / "h.json") == 1
    capsys.readouterr()
    assert run("generate", "binomial", "--window", "0,0,1,1", "--seed", 1,
               "--out", tmp_path / "s.json") == 1
    assert capsys.readouterr().err == "error: binomial needs --count\n"


def test_malformed_hierarchy_one_line_error(tmp_path, capsys):
    sample, hier = tmp_path / "s.json", tmp_path / "h.json"
    sample.write_text(json.dumps({
        "dim": 1, "window": {"lo": [-100.0], "hi": [100.0]}, "seed": 0,
        "generator": {"kind": "manual"}, "points": [0.0, 1.0, 5.0, 6.0, 20.0],
    }))
    assert run("cluster", "--input", sample, "--out", hier) == 0
    text = hier.read_text()
    no_level0 = json.loads(text)
    del no_level0["level0"]
    data = Path(__file__).parent / "data"
    no_levels = json.loads((data / "hierarchy_v1_line5.json").read_text())
    del no_levels["levels"]
    bad_exit = json.loads(text)
    bad_exit["exits"][0][1][0] = 4  # 1 -> 4 -> 3 -> 2 -> 1
    bad_id = json.loads(text)
    bad_id["exits"][0][0][0] = "1"  # read as point 1, but not an id
    bad_columns = json.loads(text)
    bad_columns["exits"][0][1] = [2]  # exit and exit_target differ in length
    extra_level = json.loads(text)
    extra_level["exits"].append([[1], [2]])  # the single pair has no exit
    v5 = dict(json.loads(text), version=5)
    unmerged = dict(json.loads(text), exits=[])  # stops at two level-0 pairs
    small_torus = json.loads(text)  # a torus window that does not hold the sample
    small_torus["metric"] = {"kind": "torus", "window": {"lo": [0.0], "hi": [1.0]}}
    # JSON true and 1.0 equal 1 in Python, but are not a version number
    v1 = json.loads((data / "hierarchy_v1_line5.json").read_text())
    v1_true, v1_float = dict(v1, version=True), dict(v1, version=1.0)
    bad_parent = json.loads((data / "hierarchy_v2_line5.json").read_text())
    bad_parent["genealogy"][1][1] = [1, 1]  # level 1 has only pair 0
    capsys.readouterr()
    for i, body in enumerate([
        json.dumps(no_level0), json.dumps(no_levels), json.dumps(bad_exit),
        json.dumps(bad_id), json.dumps(bad_columns), json.dumps(extra_level),
        json.dumps(v5), json.dumps(bad_parent), text[: len(text) // 2],
        json.dumps(v1_true), json.dumps(v1_float), json.dumps(unmerged),
        json.dumps(small_torus), (data / "hierarchy_v3_line5.json").read_text(),
    ]):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(body)
        assert run("stats", "--hierarchy", bad, "--out", tmp_path / "l.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_malformed_sample_one_line_error(tmp_path, capsys):
    good = {
        "dim": 2, "window": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}, "seed": 0,
        "generator": {"kind": "manual"}, "points": [0.1, 0.2, 0.5, 0.5],
    }
    for i, body in enumerate([
        dict(good, dim="2"), dict(good, generator=None), [good],
        # JSON strings and booleans are not numbers, and are not coerced
        dict(good, points=["0.5", True, False, "0.25"]),
        dict(good, window={"lo": ["0", 0], "hi": [1.0, 1.0]}),
        dict(good, seed="7"),
        dict(good, generator=[["a", 1]]),
        dict(good, points=[0.1, 0.2, "0.5"]),  # a string coordinate
        dict(good, points=[0.1, 0.2, {"x": 0.5, "y": 0.5}]),  # a dict coordinate
    ]):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(body))
        assert run("cluster", "--input", bad, "--out", tmp_path / "h.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed sample object") and err.count("\n") == 1, err
    # The nested layout of earlier files is refused in one line that names
    # the flat one, whether or not its rows hold dim numbers each.
    for i, points in enumerate([
        [[0.1, 0.2], [0.5, 0.5]], [[]], [[0.1, 0.2, 0.3], [0.5]], [[0.1, 0.2], "0.5"],
    ]):
        bad = tmp_path / f"rows{i}.json"
        bad.write_text(json.dumps(dict(good, points=points)))
        assert run("cluster", "--input", bad, "--out", tmp_path / "h.json") == 1
        assert capsys.readouterr().err == (
            "error: malformed sample object: TypeError: "
            "points must be one flat list of numbers [x0, y0, x1, y1, ...]\n"
        )
    # A length that is not a multiple of dim is not a sample, and neither is
    # a dim of 0 or less: one error line each, never a division by zero.
    for i, (body, want) in enumerate([
        (dict(good, points=[0.1]), "points has length 1, not a multiple of dim 2"),
        (dict(good, points=[0.1, 0.2, 0.3]), "points has length 3, not a multiple of dim 2"),
        (dict(good, dim=3), "points has length 4, not a multiple of dim 3"),
        (dict(good, dim=0), "dim must be at least 1, got 0"),
        (dict(good, dim=0, points=[]), "dim must be at least 1, got 0"),
        (dict(good, dim=-1), "dim must be at least 1, got -1"),
    ]):
        bad = tmp_path / f"length{i}.json"
        bad.write_text(json.dumps(body))
        assert run("cluster", "--input", bad, "--out", tmp_path / "h.json") == 1
        assert capsys.readouterr().err == f"error: {want}\n"


def test_invalid_sample_json_names_the_file(tmp_path, capsys):
    # Both loaders word a decode error as json.loads does, in full.
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2,')
    want = (f"error: {bad}: not valid JSON: Expecting property name enclosed "
            "in double quotes: line 1 column 11 (char 10)\n")
    assert run("cluster", "--input", bad, "--out", tmp_path / "h.json") == 1
    assert capsys.readouterr().err == want
    assert run("stats", "--hierarchy", bad, "--out", tmp_path / "s.csv") == 1
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_points_are_refused_in_one_line(literal, tmp_path, capsys):
    # json.loads reads these literals as floats, which the sample refuses;
    # orjson refuses the text itself, so its message must not show.
    sample = tmp_path / "s.json"
    sample.write_text(
        '{"dim": 2, "window": {"lo": [0, 0], "hi": [1, 1]}, "seed": 7, '
        f'"generator": {{}}, "points": [0.5, {literal}, 0.25, 0.75]}}'
    )
    assert run("cluster", "--input", sample, "--out", tmp_path / "h.json") == 1
    assert capsys.readouterr().err == "error: points must be finite\n"
    assert run("generate", "binomial", "--count", 2, "--window", "0,0,1,1",
               "--seed", 1, "--out", sample) == 0
    assert run("cluster", "--input", sample, "--out", tmp_path / "h.json") == 0
    h = tmp_path / "h.json"
    text = h.read_text()
    head, tail = text.split('"points": [', 1)
    h.write_text(head + f'"points": [{literal}, ' + tail.split(", ", 1)[1])
    capsys.readouterr()
    assert run("stats", "--hierarchy", h, "--out", tmp_path / "s.csv") == 1
    assert capsys.readouterr().err == (
        "error: malformed hierarchy object: SampleError: points must be finite\n"
    )


@pytest.mark.parametrize("command", [("cluster", "--input"), ("stats", "--hierarchy")])
def test_files_that_are_not_utf8_are_named(command, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    assert run(*command, bad, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: not valid UTF-8: 'utf-8' codec can't decode byte "
        "0xff in position 0: invalid start byte\n"
    )


TWO_POINTS = ('{"dim": 2, "window": {"lo": [0, 0], "hi": [1, 1]}, "seed": 0, '
              '"generator": {}, "points": [0.25, 0.25, 0.75, 0.5]}')


@pytest.mark.parametrize("case", ["points", "level0", "generator"])
def test_deeply_nested_files_are_one_error_line(case, tmp_path, capsys):
    # Nesting past the stdlib decoder's and encoder's recursion limits: a
    # sample whose points the validator refuses, so json.loads decodes it
    # again; a hierarchy whose level0 the validator refuses; and a sample
    # that loads, but whose extra key makes the save encode its generator.
    path = tmp_path / "in.json"
    if case == "points":
        path.write_text(TWO_POINTS.replace("[0.25, 0.25, 0.75, 0.5]", "[" * 2000 + "]" * 2000))
        argv = ("cluster", "--input", path, "--out", tmp_path / "h.json")
    elif case == "level0":
        path.write_text(f'{{"version": 4, "sample": {TWO_POINTS}, "metric": {{"kind": '
                        f'"euclidean"}}, "level0": {"[" * 3000 + "]" * 3000}, "exits": []}}')
        argv = ("stats", "--hierarchy", path, "--out", tmp_path / "s.csv")
    else:
        path.write_text(TWO_POINTS.replace(
            '"generator": {}', '"extra": 1, "generator": ' + '{"a": ' * 2000 + "1" + "}" * 2000
        ))
        argv = ("cluster", "--input", path, "--out", tmp_path / "h.json")
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err, err
    if case != "generator":
        assert err.startswith(f"error: {path}: nested too deeply: "), err
    assert not Path(argv[-1]).exists()


def test_unknown_flag_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["generate", "poisson", "--bogus", "1"])


def test_thread_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CHN2_THREADS", "1")
    out = tmp_path / "base.csv"
    assert run("baseline", "--window", "0,0,25,25", "--count", 120,
               "--seeds", "0..2", "--out", out) == 0
    single = out.read_bytes()
    monkeypatch.setenv("CHN2_THREADS", "4")
    assert run("baseline", "--window", "0,0,25,25", "--count", 120,
               "--seeds", "0..2", "--out", out) == 0
    assert out.read_bytes() == single  # determinism independent of workers


def test_bad_thread_cap_is_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHN2_THREADS", "0")
    assert run("baseline", "--window", "0,0,25,25", "--count", 120,
               "--seeds", "0..2", "--out", tmp_path / "base.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CHN2_THREADS") and err.count("\n") == 1, err


def test_bad_thread_cap_is_refused_by_a_small_build(tmp_path, monkeypatch, capsys):
    # Ten points never pass the fan-out threshold, yet the cap is still read.
    sample = tmp_path / "s.json"
    assert run("generate", "binomial", "--count", 10, "--window", "0,0,10,10",
               "--seed", 1, "--out", sample) == 0
    capsys.readouterr()
    monkeypatch.setenv("CHN2_THREADS", "0")
    assert run("cluster", "--input", sample, "--out", tmp_path / "h.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CHN2_THREADS") and err.count("\n") == 1, err


@pytest.mark.parametrize("count", ["-5", "nan", "inf"])
def test_baseline_count_errors_name_the_count(count, tmp_path, capsys):
    assert run("baseline", "--window", "0,0,10,10", f"--count={count}",
               "--seeds", "0..2", "--out", tmp_path / "base.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: expected count") and err.count("\n") == 1, err
    assert "intensity" not in err


def test_detect_rule_follows_baseline_seed_columns(tmp_path, capsys):
    from chn2.geometry import Window
    from chn2.stats import poisson_baseline, read_baseline_csv

    sample, hier, levels = tmp_path / "s.json", tmp_path / "h.json", tmp_path / "l.csv"
    assert run("generate", "binomial", "--count", 200, "--window", "0,0,30,30",
               "--seed", 3, "--out", sample) == 0
    assert run("cluster", "--input", sample, "--out", hier) == 0
    assert run("stats", "--hierarchy", hier, "--out", levels) == 0
    for seeds, rule in (("0..19", "monte-carlo rule: p = "),
                        ("0..4", "tau rule: 5 seed series")):
        base, det = tmp_path / f"base{seeds}.csv", tmp_path / f"det{seeds}.csv"
        assert run("baseline", "--window", "0,0,30,30", "--count", 200,
                   "--seeds", seeds, "--out", base) == 0
        capsys.readouterr()
        assert run("detect", "--target", levels, "--baseline", base,
                   "--out", det) == 0
        assert f"({rule}" in capsys.readouterr().out
        rows = list(csv.DictReader(det.open()))
        assert {r["rule"] for r in rows} == {rule.split()[0]}
    want = poisson_baseline(Window([0.0, 0.0], [30.0, 30.0]), 200, 5, seeds=range(5))
    assert read_baseline_csv(base) == want
