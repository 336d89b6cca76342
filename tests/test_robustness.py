"""Every CLI command on every shipped config finishes in bounded memory and
time: one child process under an address-space limit runs them all."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
ADDRESS_SPACE_BYTES = 1536 * 2**20
BUDGET_S = 120
COMMANDS = ("validate", "analyze", "extend", "verify", "envelope")

# argv: address-space limit in bytes, then the config paths.  Prints one
# [config, argv, exit code, seconds] row per run as a JSON list.
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
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        rows.append([path, argv, rc, time.perf_counter() - start])
print(json.dumps(rows))
""".replace("COMMANDS", repr(COMMANDS))


def test_every_command_on_every_config_exits_zero_under_a_memory_limit():
    configs = sorted(str(p) for p in CONFIGS.glob("*.json"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # one BLAS thread, so the limit bounds the program's memory rather than
    # the address space a thread pool reserves per core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP, str(ADDRESS_SPACE_BYTES), *configs],
        capture_output=True,
        text=True,
        timeout=BUDGET_S,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    rows = json.loads(proc.stdout)
    elements = sum(len(json.loads(Path(c).read_text()).get("elements", {})) for c in configs)
    assert len(rows) == len(COMMANDS) * len(configs) + 2 * elements
    failed = [(Path(path).stem, argv[0], rc) for path, argv, rc, _ in rows if rc != 0]
    assert not failed, failed
    slowest = max(rows, key=lambda r: r[3])
    print(f"{len(rows)} runs in {sum(r[3] for r in rows):.1f} s; slowest "
          f"{slowest[1][0]} {Path(slowest[0]).stem} {slowest[3]:.2f} s")
