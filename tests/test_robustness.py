"""Every CLI command on every shipped config, and on generated ones,
finishes in bounded memory and time: one child process under an
address-space limit runs them all.  Wide truncations and wide coefficient
windows stay within a limit too."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from semicrossed.cli import EXIT_CAP, EXIT_CONFIG, EXIT_NO_CONVERGENCE, EXIT_OK

from conftest import rand_config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
ADDRESS_SPACE_BYTES = 1536 * 2**20
BUDGET_S = 120
COMMANDS = ("validate", "analyze", "extend", "verify", "envelope")

# argv: address-space limit in bytes, then the config paths.  Prints one
# [config, argv, exit code, seconds] row per run as a JSON list; an exception
# that leaves ``main`` is caught and its type and message stand for the code.
SWEEP = r"""
import contextlib, io, json, resource, sys, time

limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from semicrossed.cli import main

rows = []
for path in sys.argv[2:]:
    with open(path) as fh:
        elements = sorted(json.load(fh).get("elements", {}))
    runs = [[cmd] for cmd in COMMANDS]
    runs += [[cmd, e] for e in elements for cmd in ("norm", "crossed-norm")]
    for argv in runs:
        argv = argv + ["--config", path, "--no-timestamp"]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
        except Exception as exc:
            rc = f"{type(exc).__name__}: {exc}"
        rows.append([path, argv, rc, time.perf_counter() - start])
print(json.dumps(rows))
""".replace("COMMANDS", repr(COMMANDS))


def _run_limited(script: str, limit_bytes: int, *args: str, timeout: float = BUDGET_S):
    """Run ``script`` in a child process whose first argument is the
    address-space limit it sets on itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # one BLAS thread, so the limit bounds the program's memory rather than
    # the address space a thread pool reserves per core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(limit_bytes), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def test_every_command_on_every_config_exits_zero_under_a_memory_limit():
    configs = sorted(str(p) for p in CONFIGS.glob("*.json"))
    proc = _run_limited(SWEEP, ADDRESS_SPACE_BYTES, *configs)
    rows = json.loads(proc.stdout)
    elements = sum(len(json.loads(Path(c).read_text()).get("elements", {})) for c in configs)
    assert len(rows) == len(COMMANDS) * len(configs) + 2 * elements
    failed = [(Path(path).stem, argv[0], rc) for path, argv, rc, _ in rows if rc != 0]
    assert not failed, failed
    slowest = max(rows, key=lambda r: r[3])
    print(f"{len(rows)} runs in {sum(r[3] for r in rows):.1f} s; slowest "
          f"{slowest[1][0]} {Path(slowest[0]).stem} {slowest[3]:.2f} s")


GENERATED_CONFIGS = 24
GENERATED_BUDGET_S = 60  # all runs together; about 6 s on 2 cores
RUN_S = 3.0


def test_every_command_on_generated_configs_ends_with_a_documented_code(tmp_path):
    """Random graphs, functions, sparse and dense supports up to U^10000, and
    a lasso with its lift: every run ends in bounded time with a documented
    exit code (ok, config, no convergence, cap), never an exception."""
    rng = random.Random(11)
    paths = []
    for i in range(GENERATED_CONFIGS):
        path = tmp_path / f"generated-{i}.json"
        path.write_text(json.dumps(rand_config(rng)))
        paths.append(str(path))
    rows = json.loads(_run_limited(SWEEP, ADDRESS_SPACE_BYTES, *paths, timeout=GENERATED_BUDGET_S).stdout)
    assert len(rows) > len(COMMANDS) * GENERATED_CONFIGS
    documented = (EXIT_OK, EXIT_CONFIG, EXIT_NO_CONVERGENCE, EXIT_CAP)
    bad = [(Path(path).stem, argv[0], rc) for path, argv, rc, _ in rows if rc not in documented]
    assert not bad, bad
    assert all(rc == EXIT_OK for _, argv, rc, _ in rows if argv[0] == "validate")
    slow = [(Path(path).stem, argv[:2], round(s, 2)) for path, argv, _, s in rows if s >= RUN_S]
    assert not slow, slow
    print(f"{len(rows)} runs in {sum(r[3] for r in rows):.1f} s; slowest {max(r[3] for r in rows):.2f} s")


# Wide pictures are kept in band form: a dense 16384-wide complex block alone
# would take 4 GiB.  The element's largest singular vectors sit where the
# orbit reads 101, in the preperiod, so each wide block's norm equals that of
# a narrow dense block.  Prints [wide, narrow] pairs and the 1+U norm as JSON.
WIDE_TRUNCATIONS = r"""
import json, resource, sys

limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
import numpy as np
from semicrossed.algebra import embed_poly, semicrossed_poly, u_power
from semicrossed.dynamics import make_cylinder, make_lasso, validate_sft
from semicrossed.extension import lift_point
from semicrossed.representations import (
    norm_Pi_x, norm_pi_x, restricted_Pi_block, restricted_pi_block,
)

def svd_norm(M):
    return float(np.linalg.svd(M, compute_uv=False)[0])

gm = validate_sft(2, [[1, 1], [1, 0]])
f = make_cylinder(gm, 3, {w: 4.0 if w == (1, 0, 1) else 0.5 for w in gm.admissible_words(3)})
g = make_cylinder(gm, 1, {(0,): 0.5, (1,): -1j})
F = semicrossed_poly(gm, {0: f, 1: g}) + u_power(gm, 2)
x = make_lasso(gm, (1, 0, 1, 0), (0, 0, 1))
E, xt = embed_poly(F), lift_point(x)
print(json.dumps([
    [norm_pi_x(F, x, 16384), svd_norm(restricted_pi_block(F, x, 256))],
    [norm_Pi_x(E, xt, 4096), svd_norm(restricted_Pi_block(E, xt, 128))],
    norm_pi_x(u_power(gm, 0) + u_power(gm, 1), x, 4096),
]))
"""


def test_wide_truncations_fit_in_512_mib():
    proc = _run_limited(WIDE_TRUNCATIONS, 512 * 2**20, timeout=60)
    one_sided, two_sided, anchor = json.loads(proc.stdout)
    assert one_sided[0] == pytest.approx(one_sided[1], rel=1e-10)
    assert two_sided[0] == pytest.approx(two_sided[1], rel=1e-10)
    assert anchor == pytest.approx(2 * math.cos(math.pi / 8192), abs=1e-10)


# A golden-mean coefficient of width 28 (832,040 admissible words) in a beam
# search: nothing may be allocated per word of the 2^28 binary ones.
WIDE_WINDOW_BEAM = r"""
import resource, sys

limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from semicrossed.algebra import from_function
from semicrossed.dynamics import CylinderFunction, IndicatorTable, validate_sft
from semicrossed.representations import constant_A

gm = validate_sft(2, [[1, 1], [1, 0]])
target = (0, 1) * 14
F = from_function(CylinderFunction(gm, 28, IndicatorTable(gm, target)))
print(constant_A(F, 8, mode="beam:8").value)
"""


def test_wide_window_beam_search_fits_in_2_gib():
    proc = _run_limited(WIDE_WINDOW_BEAM, 2 * 2**30)
    assert float(proc.stdout) == 1.0
