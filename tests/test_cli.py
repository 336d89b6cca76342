"""Command-line interface: exit codes, report schema, determinism."""

import copy
import io
import json
import math
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicrossed import cli
from semicrossed.cli import EXIT_CAP, EXIT_CONFIG, EXIT_NO_CONVERGENCE, EXIT_OK, _data, main
from semicrossed.config import load_config
from semicrossed.dynamics import MAX_CHECKED_SYMBOLS, make_lasso
from semicrossed.errors import SeparationFailure
from semicrossed.representations import semicrossed_norm, sup_lambda_norm

from conftest import rand_graph, rand_lasso


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GM = str(CONFIGS / "golden-mean.json")
FULL2 = str(CONFIGS / "full-2.json")

SCHEMA_KEYS = {"command", "inputs", "results", "diagnostics", "version"}


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(args)
    return rc, out.getvalue(), err.getvalue()


def run_json(args):
    rc, out, err = run(args)
    return rc, json.loads(out), err


# ---------------------------------------------------------------------------
# happy paths


def test_report_data_falls_back_to_repr():
    """A value that is no number, string, container or dataclass prints as
    its ``repr``."""
    assert _data({"at": Fraction(1, 3), "w": (1, 2j)}) == {"at": "Fraction(1, 3)", "w": [1, [0.0, 2.0]]}


def test_validate_reports_normalized_config():
    rc, rep, _ = run_json(["validate", "--config", GM, "--no-timestamp"])
    assert rc == EXIT_OK
    assert set(rep) == SCHEMA_KEYS
    assert rep["command"] == "validate"
    cfg = rep["results"]["config"]
    assert cfg["name"] == "golden-mean"
    assert set(cfg["elements"]) == {"U", "onePlusU", "fU", "mixed"}


def test_validate_timestamp_toggle():
    _, with_ts, _ = run_json(["validate", "--config", GM])
    _, without, _ = run_json(["validate", "--config", GM, "--no-timestamp"])
    assert "timestamp" in with_ts and "timestamp" not in without


def test_analyze_table_agrees():
    rc, rep, _ = run_json(["analyze", "--config", GM, "--no-timestamp"])
    assert rc == EXIT_OK
    assert rep["results"]["all_agree"] is True
    props = [row["property"] for row in rep["results"]["transfer"]]
    assert props == ["transitive", "periodic_dense", "minimal", "recurrent_dense"]


def test_extend_lists_fibers_and_cycles():
    rc, rep, _ = run_json(["extend", "--config", GM, "--no-timestamp"])
    assert rc == EXIT_OK
    res = rep["results"]
    assert [0, 1] in res["cycles"]
    fib = res["fibers"]["cycleStart"]
    assert fib["classification"]["periodic"] is True
    assert len(fib["backward_coordinates"]) == 4
    # consecutive backward coordinates differ by one application of the shift
    first, second = fib["backward_coordinates"][0], fib["backward_coordinates"][1]
    assert second[1:] == first[: len(first) - 1]


def test_norm_reports_history_and_converges(tmp_path):
    out_file = tmp_path / "norm.json"
    rc, out, _ = run(
        ["norm", "onePlusU", "--config", GM, "--no-timestamp", "--out", str(out_file)]
    )
    assert rc == EXIT_OK
    assert out == ""  # --out redirects the report
    rep = json.loads(out_file.read_text())
    est = rep["results"]["estimate"]
    assert est["converged"] is True
    assert est["value"] == pytest.approx(2.0, abs=1e-6)
    ks = [k for k, _ in est["history"]]
    assert ks == sorted(ks)
    assert "K_history" not in est["detail"] and "K_history" not in rep["diagnostics"]


def test_norm_csv_writes_the_history(tmp_path):
    csv_file = tmp_path / "history.csv"
    rc, rep, _ = run_json(["norm", "fU", "--config", GM, "--no-timestamp", "--csv", str(csv_file)])
    assert rc == EXIT_OK
    rows = [line.split(",") for line in csv_file.read_text().splitlines()]
    history = rep["results"]["estimate"]["history"]
    assert rows == [["K", "value"]] + [[str(K), str(v)] for K, v in history]


def test_crossed_norm_command():
    rc, rep, _ = run_json(
        ["crossed-norm", "onePlusU", "--config", FULL2, "--no-timestamp", "--k-max", "64"]
    )
    assert rc == EXIT_OK
    assert rep["results"]["estimate"]["value"] == pytest.approx(2.0, abs=1e-6)


def test_verify_command_runs_all_checks():
    rc, rep, _ = run_json(
        ["verify", "--config", GM, "--no-timestamp", "--lambda-grid", "64", "--k-max", "64"]
    )
    assert rc == EXIT_OK
    res = rep["results"]
    assert res["ok"] is True
    assert res["covariance"]["exact"] == res["covariance"]["triples"] == 25
    assert res["norm_lemmas"]
    for block in res["norm_lemmas"].values():
        assert block["ok"] is True
        assert all(row["ok"] for row in block["cycle_rows"] + block["ray_rows"])
    assert res["nest"]  # one record per configured point
    for record in res["nest"].values():
        if record["separated"]:
            assert record["indicators_exact"] and record["tails_invariant"]
        else:
            assert "reason" in record


@pytest.mark.parametrize("config, point, check_to", [(FULL2, "thueMorse", 16), (GM, "fib", 20)])
def test_short_stream_horizon_is_reported_not_raised(tmp_path, config, point, check_to):
    cfg = json.loads(Path(config).read_text())
    cfg["points"][point]["check_to"] = check_to
    short = tmp_path / "short.json"
    short.write_text(json.dumps(cfg))
    rc, rep, _ = run_json(["verify", "--config", str(short), "--no-timestamp"])
    assert rc == EXIT_OK
    # the K=16 nest search needs 16 + 1 symbols at width 2 (17 > 16), or
    # 21 at width 6 on the Fibonacci word
    reason = f"itinerary of length {check_to + 1} exceeds certified horizon {check_to}"
    assert rep["results"]["nest"][point] == {"separated": False, "K": 16, "reason": reason}
    assert rep["results"]["ok"] is False
    rc, rep, _ = run_json(["extend", "--config", str(short), "--no-timestamp"])
    assert rc == EXIT_OK
    assert rep["results"]["fibers"][point]["source"] == "lifted"


def test_extend_backs_a_stream_prefix_off_to_the_cycle(tmp_path):
    """``extend`` lifts a stream through a lasso: its prefix closed by the
    first cycle.  On sink-tail (no edge 1 -> 0) the stream 0 1 1 1 ...
    ends its prefix on 1, which cannot enter the cycle (0), so the prefix
    backs off to (0,) and the lift is the fixed point 0, as cycleStart's."""
    cfg = json.loads((CONFIGS / "sink-tail.json").read_text())
    rule = {"substitution": {"0": [0, 1], "1": [1]}, "seed": 0}
    cfg["points"]["tail"] = {"kind": "stream", "rule": rule, "check_to": 128}
    path = tmp_path / "tail.json"
    path.write_text(json.dumps(cfg))
    stream = load_config(path).points["tail"]
    assert cli._stream_lasso(stream) == make_lasso(stream.graph, (0,), (0,))
    rc, rep, _ = run_json(["extend", "--config", str(path), "--no-timestamp"])
    assert rc == EXIT_OK
    fibers = rep["results"]["fibers"]
    assert fibers["tail"]["source"] == "lifted"
    assert fibers["tail"]["point"] == fibers["cycleStart"]["point"]
    assert fibers["tail"]["classification"]["periodic"] is True


def test_verify_cycle_rows_follow_policy_refine_steps(tmp_path):
    cfg = json.loads(Path(GM).read_text())
    cfg["elements"] = {k: cfg["elements"][k] for k in ("mixed", "onePlusU")}
    cfg["policy"]["refine_steps"] = 0
    path = tmp_path / "unrefined.json"
    path.write_text(json.dumps(cfg))
    rc, rep, _ = run_json(
        ["verify", "--config", str(path), "--no-timestamp", "--lambda-grid", "5", "--k-max", "64"]
    )
    assert rc == EXIT_OK
    assert rep["diagnostics"]["lambda_resolution"] == {"grid": 5, "refine_steps": 0}
    elements = load_config(str(path)).elements
    refined = []
    for name, block in rep["results"]["norm_lemmas"].items():
        for row in block["cycle_rows"]:
            cycle = tuple(row["cycle"])
            want = sup_lambda_norm(elements[name], cycle, grid=5, refine_steps=0)
            assert row["sup_value"] == want.value
            assert row["lam"] == _data(want.lam)
            refined.append(sup_lambda_norm(elements[name], cycle, grid=5).value > want.value)
    assert any(refined)  # the policy's 0 steps are visible in the rows


def test_envelope_command_and_csv(tmp_path):
    csv_file = tmp_path / "sweep.csv"
    rc, rep, _ = run_json(
        ["envelope", "--config", FULL2, "--no-timestamp", "--csv", str(csv_file), "--k-max", "64"]
    )
    assert rc == EXIT_OK
    res = rep["results"]
    assert res["implication_ok"] is True
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "element,semicrossed,crossed,gap"
    assert len(lines) == len(res["embedding_sweep"]) + 1


@pytest.mark.parametrize("periodic", [True, False])
def test_verify_ok_reads_the_periodic_flag_not_the_message(monkeypatch, periodic):
    """A nest check that fails on a periodic point is expected; any other
    failure makes ``ok`` false, whatever its message says."""

    def fail(x, K):
        raise SeparationFailure("no window" if periodic else "positions repeat", periodic=periodic)

    monkeypatch.setattr(cli, "verify_nest_truncation", fail)
    rc, rep, _ = run_json(["verify", "--config", GM, "--no-timestamp", "--lambda-grid", "64", "--k-max", "64"])
    assert rc == EXIT_OK
    assert not any(r["separated"] for r in rep["results"]["nest"].values())
    assert rep["results"]["ok"] is periodic


def test_configs_without_elements_sweep_the_default_elements(tmp_path):
    cfg = json.loads(Path(GM).read_text())
    del cfg["elements"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(cfg))
    rc, rep, _ = run_json(["verify", "--config", str(path), "--no-timestamp", "--k-max", "64"])
    assert rc == EXIT_OK
    assert sorted(rep["results"]["norm_lemmas"]) == ["U", "onePlusU"]
    rc, rep, _ = run_json(["envelope", "--config", str(path), "--no-timestamp", "--k-max", "64"])
    assert rc == EXIT_OK
    assert [r["element"] for r in rep["results"]["embedding_sweep"]] == ["U", "onePlusU", "weightedShift"]


def test_envelope_output_is_deterministic():
    args = ["envelope", "--config", GM, "--no-timestamp", "--k-max", "64"]
    _, first, _ = run(args)
    _, second, _ = run(args)
    assert first == second


def test_cli_reports_script_is_reproducible(tmp_path):
    """scripts/cli_reports.py writes one report per command and element; two
    runs write the same bytes, so two checkouts can be compared by diff."""
    config = CONFIGS / "two-cycle.json"
    elements = json.loads(config.read_text())["elements"]
    script = Path(__file__).resolve().parent.parent / "scripts" / "cli_reports.py"
    trees = []
    for run_dir in ("first", "second"):
        out = tmp_path / run_dir
        proc = subprocess.run(
            [sys.executable, str(script), str(out), "--config", str(config)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(trees[0]) == 5 + 2 * len(elements)
    assert "two-cycle.verify.json" in trees[0]
    assert trees[0] == trees[1]


def test_cli_reports_script_compares_two_directories(tmp_path):
    """``--against`` counts the byte-identical reports, names the files on
    one side only, lists every changed leaf of a differing report, and
    sums them up per path without list indices: count, largest relative
    change among the numeric leaves, path."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "cli_reports.py"
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    same = {"command": "analyze", "results": {"girth": 2}}
    for d in (old, new):
        (d / "a.json").write_text(json.dumps(same))
    (old / "b.json").write_text(json.dumps({"results": {"value": 1.5, "cycles": [[0, 1], [2]]}, "ok": True}))
    (new / "b.json").write_text(json.dumps({"results": {"value": 1.25, "cycles": [[0, 1]]}, "ok": True}))
    (old / "gone.json").write_text("{}")
    (new / "added.json").write_text("{}")

    def compare(a, b):
        proc = subprocess.run(
            [sys.executable, str(script), str(a), "--against", str(b)], capture_output=True, text=True, timeout=60
        )
        return proc.returncode, proc.stdout.splitlines()

    rc, lines = compare(new, old)
    assert rc == 1
    assert lines == [
        "1 of 2 reports in both directories are byte-identical",
        f"only in {old}: gone.json",
        f"only in {new}: added.json",
        "b.json: results.value: 1.5 -> 1.25",
        "b.json: results.cycles[1][0]: 2 -> <missing>",
        "1 - results.cycles",
        "1 1.67e-01 results.value",
    ]
    (new / "added.json").unlink()
    (new / "b.json").write_bytes((old / "b.json").read_bytes())
    (new / "gone.json").write_text("{}")
    assert compare(new, old) == (0, ["3 of 3 reports in both directories are byte-identical"])


def test_scale_report_script_times_every_command():
    """scripts/scale_report.py runs the five commands on the 8-symbol
    one-cycle config and prints one line each, with exit code 0."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "scale_report.py"
    proc = subprocess.run([sys.executable, str(script), "8"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["M", "command", "exit", "wall_s"]
    assert [r.split()[:-2] for r in rows] == [
        ["8", "extend"],
        ["8", "norm", "onePlusU"],
        ["8", "crossed-norm", "onePlusU"],
        ["8", "verify"],
        ["8", "envelope"],
    ]
    assert all(r.split()[-2] == "0" and float(r.split()[-1]) > 0 for r in rows)


def _norm_convergence(tmp_path, *args):
    """Run scripts/norm_convergence.py on full-2's ``mixed``; return the exit
    code, stderr and the CSV rows (K, word bound, one-sided, two-sided, gap)."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "norm_convergence.py"
    out = tmp_path / "table.csv"
    out.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(script), "--config", FULL2, "--element", "mixed", "--csv", str(out), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]] if out.exists() else []
    return proc.returncode, proc.stderr, rows


def test_norm_convergence_script_takes_the_cli_k_max_rule(tmp_path):
    """--k-max caps the table as it caps ``semicrossed norm``: K_initial is
    lowered to it, and a K_max below 1 is a config error (exit 2)."""
    rc, _, rows = _norm_convergence(tmp_path, "--k-max", "4")
    assert rc == 0
    assert [int(r[0]) for r in rows] == [4]
    rc, err, rows = _norm_convergence(tmp_path, "--k-max", "0")
    assert rc == EXIT_CONFIG and "--k-max: must be positive" in err
    assert rows == []
    rc, out, _ = run(["norm", "mixed", "--config", FULL2, "--no-timestamp", "--k-max", "4"])
    assert [K for K, _ in json.loads(out)["results"]["estimate"]["history"]] == [4]


def test_norm_convergence_word_bound_is_the_estimates(tmp_path):
    """The word-bound column reruns the word search level by level, each
    level given the previous one's search as the estimate does, so its last
    entry is the estimate's word value (2.296044 on full-2 ``mixed``;
    unseeded it read 2.294804)."""
    rc, _, rows = _norm_convergence(tmp_path)
    assert rc == 0
    cfg = load_config(FULL2)
    est = semicrossed_norm(cfg.elements["mixed"], cfg.policy)
    assert [int(r[0]) for r in rows] == [K for K, _ in est.history]
    assert float(rows[-1][1]) == est.diagnostics["word_value"]


# ---------------------------------------------------------------------------
# failure paths


def test_unknown_element_is_a_config_error():
    rc, _, err = run(["norm", "nosuch", "--config", GM, "--no-timestamp"])
    assert rc == EXIT_CONFIG
    assert "nosuch" in err


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda d: d["functions"]["f"]["values"].update({"0": math.nan}), "functions.f.values.'0'"),
        (lambda d: d["functions"]["g"]["values"].update({"01": [0.5, -math.inf]}), "functions.g.values.'01'[1]"),
        (lambda d: d["policy"].update(tolerance=math.inf), "policy.tolerance"),
        (lambda d: d["policy"].update(tolerance=math.nan), "policy.tolerance"),
    ],
)
@pytest.mark.parametrize("command", [["validate"], ["norm", "fU"]])
def test_non_finite_config_numbers_are_config_errors(tmp_path, edit, needle, command):
    """json.loads reads NaN and Infinity: such a value is refused with its
    path, rather than echoed as invalid JSON, raised from an SVD, or taken
    as a tolerance every estimate meets."""
    data = json.loads(Path(GM).read_text())
    edit(data)
    path = tmp_path / "non-finite.json"
    path.write_text(json.dumps(data))
    rc, out, err = run([*command, "--config", str(path), "--no-timestamp"])
    assert rc == EXIT_CONFIG and out == ""
    assert f"{needle}: expected a finite number" in err


@pytest.mark.parametrize("tol", ["inf", "nan", "1e400"])
def test_non_finite_tol_flag_is_a_config_error(tol):
    rc, out, err = run(["norm", "fU", "--config", GM, "--tol", tol, "--no-timestamp"])
    assert rc == EXIT_CONFIG and out == ""
    assert "--tol: expected a finite number" in err


@pytest.mark.parametrize(
    "point, needle",
    [
        ({"kind": "lasso", "per": []}, "period must be nonempty"),
        ({"kind": "bilasso", "left": [], "at": 0, "right": [0]}, "both periods must be nonempty"),
        ({"kind": "stream", "rule": "fibonacci", "check_to": 0}, "check_to must be >= 1"),
    ],
)
def test_malformed_points_are_located_config_errors(tmp_path, point, needle):
    """A point its constructor refuses with a ValueError is a config error
    at its path, not a traceback."""
    data = json.loads(Path(GM).read_text())
    data["points"]["bad"] = point
    path = tmp_path / "bad-point.json"
    path.write_text(json.dumps(data))
    rc, out, err = run(["validate", "--config", str(path), "--no-timestamp"])
    assert rc == EXIT_CONFIG and out == ""
    assert f"config error: points.bad: {needle}" in err


def test_norm_past_a_stream_horizon_is_a_config_error(tmp_path):
    """The estimate reads every sample point at each level: a stream
    certified to 10 symbols cannot give the 15 that the K = 16 level
    reads."""
    data = json.loads(Path(GM).read_text())
    data["points"]["fib"]["check_to"] = 10
    path = tmp_path / "short.json"
    path.write_text(json.dumps(data))
    rc, out, err = run(["norm", "mixed", "--config", str(path), "--no-timestamp"])
    assert rc == EXIT_CONFIG and out == ""
    assert "config error: itinerary of length 15 exceeds certified horizon 10" in err


def test_stream_past_the_certification_cap_exits_with_the_cap_code(tmp_path):
    """One symbol past ``MAX_CHECKED_SYMBOLS`` is a cap, exit 4, raised
    before the stream is read; ``check_to`` 10^9 used to certify for
    minutes."""
    data = json.loads(Path(FULL2).read_text())
    data["points"]["thueMorse"]["check_to"] = MAX_CHECKED_SYMBOLS + 1
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data))
    rc, out, err = run(["validate", "--config", str(path), "--no-timestamp"])
    assert rc == EXIT_CAP and out == ""
    assert f"cap exceeded: certifying {MAX_CHECKED_SYMBOLS + 1} stream symbols exceeds the cap" in err
    data["points"]["thueMorse"]["offset"] = 1
    path.write_text(json.dumps(data))
    rc, out, _ = run(["validate", "--config", str(path), "--no-timestamp"])
    assert rc == EXIT_OK and json.loads(out)["results"]["config"]["points"]["thueMorse"]["offset"] == 1


def test_malformed_config_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "graph": {"alphabet": 2}}))
    rc, _, err = run(["validate", "--config", str(bad), "--no-timestamp"])
    assert rc == EXIT_CONFIG
    assert "alphabet_size" in err


def test_missing_config_file():
    rc, _, err = run(["validate", "--config", "/nonexistent/nope.json"])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_output_path_is_a_config_error(tmp_path, flag):
    """Exit 2 with the path named, and nothing on stdout; a traceback's
    exit 1 is no documented code."""
    path = tmp_path / "missing" / "report"
    rc, out, err = run(["validate", "--config", GM, "--no-timestamp", flag, str(path)])
    assert rc == EXIT_CONFIG and out == ""
    assert f"cannot write {path}: No such file or directory" in err


@pytest.mark.parametrize("mode", ["beam: 8", "beam:+8", "beam:0", "beam:", "depth-first"])
def test_bad_mode_flag_is_a_located_config_error(mode):
    # the flag follows the config's rule: "beam:" then ASCII digits, >= 1
    rc, _, err = run(["validate", "--config", GM, "--mode", mode, "--no-timestamp"])
    assert rc == EXIT_CONFIG
    assert "--mode:" in err
    rc, report, _ = run_json(["validate", "--config", GM, "--mode", "beam:08", "--no-timestamp"])
    assert rc == EXIT_OK and report["inputs"]["policy"]["mode"] == "beam:08"


def test_word_cap_exhaustion(tmp_path):
    cfg = json.loads(Path(FULL2).read_text())
    cfg = copy.deepcopy(cfg)
    cfg["policy"]["word_cap"] = 100
    cfg["policy"]["mode"] = "exhaustive"
    small = tmp_path / "capped.json"
    small.write_text(json.dumps(cfg))
    rc, _, err = run(["norm", "mixed", "--config", str(small), "--no-timestamp"])
    assert rc == EXIT_CAP
    assert "cap" in err


def _one_plus_u_to(tmp_path, power: int) -> str:
    """A golden-mean copy whose only element is 1 + U^power."""
    cfg = json.loads(Path(GM).read_text())
    cfg["elements"] = {"big": [{"power": 0}, {"power": power}]}
    path = tmp_path / f"one-plus-u-{power}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("command", [["norm", "big"], ["envelope"]])
def test_a_spread_past_k_max_is_the_cap(tmp_path, command):
    """1 + U^3000 needs K >= 3001 > K_max = 256.  It used to be estimated
    at K = 3001 anyway, in about 26 s, with exit 3 (norm) or 0 (envelope)."""
    path = _one_plus_u_to(tmp_path, 3000)
    start = time.perf_counter()
    rc, _, err = run([*command, "--config", path, "--no-timestamp"])
    assert rc == EXIT_CAP and "K_max = 256 is below 3001" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("command", ["norm", "crossed-norm"])
def test_a_sparse_support_costs_its_bands(tmp_path, command):
    """U + U^5 + U^250 has three bands over a spread of 250.  When the band
    products zero-filled a slab for every power in between, ``norm`` took
    about 15 s."""
    cfg = json.loads(Path(GM).read_text())
    cfg["elements"] = {"sparse": [{"power": 1}, {"power": 5}, {"power": 250}]}
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    rc, rep, _ = run_json([command, "sparse", "--config", str(path), "--no-timestamp"])
    assert rc == EXIT_OK and rep["results"]["estimate"]["value"] == 3.0
    assert time.perf_counter() - start < 3.0


@pytest.mark.parametrize("power, code", [(33, EXIT_OK), (3000, EXIT_CAP)])
def test_verify_rays_fit_the_power_spread(tmp_path, power, code):
    """The ray rows read a truncation with a complete column: at 16 they
    raised ValueError for every power >= 33.  A lemma K below the spread + 1
    is the cap."""
    rc, out, err = run(["verify", "--config", _one_plus_u_to(tmp_path, power), "--no-timestamp"])
    assert rc == code
    if code == EXIT_OK:
        rays = json.loads(out)["results"]["norm_lemmas"]["big"]["ray_rows"]
        assert rays and all(r["ok"] for r in rays)
    else:
        assert "lemma truncation K = 128 is below 3001" in err


def test_no_convergence_still_writes_report(tmp_path):
    out_file = tmp_path / "partial.json"
    rc, out, err = run(
        [
            "norm",
            "mixed",
            "--config",
            GM,
            "--no-timestamp",
            "--k-max",
            "8",
            "--out",
            str(out_file),
        ]
    )
    assert rc == EXIT_NO_CONVERGENCE
    rep = json.loads(out_file.read_text())
    assert rep["results"]["estimate"]["converged"] is False


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# random small systems through the whole front end


def _random_config(rng: random.Random) -> dict:
    """A valid graph on at most five symbols, one function, one element, a
    lasso point from a random walk and a small policy."""
    g = rand_graph(rng, 5, density=0.5)
    window = rng.randint(1, 2)
    values = {
        "".join(map(str, w)): [round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3)]
        for w in g.admissible_words(window)
    }
    terms = [{"power": n} for n in range(rng.randint(0, 2))]
    terms.append({"power": rng.randint(0, 3), "function": "f"})
    x = rand_lasso(rng, g)
    return {
        "name": "random",
        "alphabet_size": g.alphabet_size,
        "edges": [[int(e) for e in row] for row in g.edges],
        "functions": {"f": {"window": window, "values": values}},
        "elements": {"e": terms},
        "points": {"walk": {"kind": "lasso", "pre": list(x.pre), "per": list(x.per)}},
        "policy": {
            "K_initial": rng.choice([4, 8]),
            "K_max": rng.choice([8, 16, 32, 64]),
            "mode": "beam:4",
            "max_period": rng.randint(1, 3),
            "lambda_grid": 16,
            "refine_steps": 8,
        },
    }


@given(st.integers(0, 10**9))
@settings(max_examples=20, deadline=None)
def test_random_small_systems_exit_cleanly(seed):
    cfg = _random_config(random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "random.json"
        path.write_text(json.dumps(cfg))
        for command in (["validate"], ["analyze"], ["extend"], ["norm", "e"], ["verify"]):
            rc, out, err = run(command + ["--config", str(path), "--no-timestamp"])
            assert rc in (EXIT_OK, EXIT_NO_CONVERGENCE, EXIT_CAP), (command, cfg, err)
            if rc == EXIT_CAP:
                assert "cap" in err
            else:
                assert json.loads(out)["command"] == command[0]
