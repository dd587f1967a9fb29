"""The checks of a runtime-only install: the package alone, numpy its only
dependency, with no pytest, no jsonschema and none of the tests' helpers.

Run it from any directory, on an installed package (`pip install .`) or
with the package's `src` on PYTHONPATH:

    python tests/runtime_checks.py

It keeps its own directory off `sys.path`, so no helper of the tests, the
single-state stepper `stepping` among them, can be imported.  A numpy
RuntimeWarning (an invalid cast, a division by zero) fails every check.
In a temporary directory it checks, in order:

1. `walk.evolve` steps the benchmark's kernel-grid walker on the package's
   own engine.
2. `verify` of every shipped config, a fresh `python -m qwtopo` process,
   prints its `ok:` line, the simulations, window, site-steps and walkers
   per batch that `tests/shipped_estimates.json` records, the upper-bounds
   note exactly where that estimate is not exact, and nothing else.
3. `verify` and `run` of every shipped config, each a fresh
   `python -m qwtopo` process, succeed, and each run's manifest lists the
   files and hashes that `tests/shipped_hashes.json` records.
4. Every shipped config run twice in this one interpreter gives the
   recorded hashes in both rounds: no study's state leaks into the next.
5. `replot` of every run of check 3 that wrote CSV tables rewrites the
   bytes `run` wrote, so every manifest hash still holds.
6. A `--format json` run of every shipped config writes strict JSON only:
   no NaN or Infinity token, a cell with no value is null.
7. `verify` of a shipped config, a fresh `python -m qwtopo` process run
   through `runpy`, adds none of numpy, `dataclasses`, `inspect`,
   `hashlib`, `csv`, `datetime`, `qwtopo.dataio`, `copy` or `__future__`
   to the modules the interpreter started with: only `run` and `replot`
   load them.
8. `run` of every shipped config, a fresh process, loads the package
   modules that `tests/shipped_modules.json` records: only its kind's.

It prints one line per check that holds and exits 0, or exits 1 with a
message naming the first check that fails.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.curdir) != HERE]

CONFIGS = sorted(os.path.join(HERE, "..", "configs", name)
                 for name in os.listdir(os.path.join(HERE, "..", "configs")))
with open(os.path.join(HERE, "shipped_hashes.json"), encoding="utf-8") as _fh:
    #: name of a shipped config -> {output file: sha256}, manifest excluded.
    RECORDED = json.load(_fh)
with open(os.path.join(HERE, "shipped_estimates.json"), encoding="utf-8") as _fh:
    #: name of a shipped config, without ".json" -> its `config.estimate`.
    ESTIMATES = json.load(_fh)
with open(os.path.join(HERE, "shipped_modules.json"), encoding="utf-8") as _fh:
    #: name of a shipped config -> the package modules its `run` loads.
    MODULES = json.load(_fh)


def qwtopo(*args: str) -> str:
    """`python -m qwtopo args` in a fresh process; exits on a non-zero code,
    else returns what it printed."""
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "qwtopo", *args],
                          capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"qwtopo {' '.join(args)} exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def manifest_outputs(out: str) -> dict:
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def check_evolve():
    from qwtopo import walk
    from qwtopo.scattering import ScatteringSystem
    protocol = ScatteringSystem.for_steps(0.63 * math.pi, 1.26 * math.pi, 11).protocol()
    states = walk.evolve(walk.WalkerState.localized(-1, walk.H), protocol, 11)
    if "stepping" in sys.modules or importlib.util.find_spec("stepping") is not None:
        sys.exit("the tests' single-state stepper is importable")
    if len(states) != 12:
        sys.exit(f"walk.evolve gave {len(states)} states, not 12")


def check_estimates():
    for cfg in CONFIGS:
        name = os.path.basename(cfg)
        est = ESTIMATES[name.removesuffix(".json")]
        with open(cfg, encoding="utf-8") as fh:
            kind = json.load(fh)["experiment"]
        printed = qwtopo("verify", "--config", cfg).splitlines()
        want = [f"ok: {kind} config is valid",
                f"estimated simulations: {est['simulations']}",
                f"estimated window: {est['window_sites']} sites",
                f"estimated site-steps: {est['site_steps']}",
                "estimated walkers per batch: " + ", ".join(
                    f"{walkers} at {field}" for field, walkers in est["batch_walkers"])]
        if not est["exact"]:
            want.append("note: each distinct disorder pattern is stepped once, so simulations, "
                        "site-steps and walkers per batch are upper bounds")
        if printed != want:
            sys.exit(f"{name}: verify printed {printed}, not {want}")


def check_runs(top: str):
    for cfg in CONFIGS:
        name = os.path.basename(cfg)
        out = os.path.join(top, "out", name.removesuffix(".json"))
        qwtopo("verify", "--config", cfg)
        qwtopo("run", "--config", cfg, "--out", out)
        if (got := manifest_outputs(out)) != RECORDED[name]:
            sys.exit(f"{name}: outputs {got} are not the recorded {RECORDED[name]}")


def check_twice(top: str):
    from qwtopo.cli import entrypoint
    for round_ in (1, 2):
        for cfg in CONFIGS:
            name = os.path.basename(cfg)
            out = os.path.join(top, "twice", str(round_), name.removesuffix(".json"))
            with contextlib.redirect_stdout(io.StringIO()):
                code = entrypoint(["run", "--config", cfg, "--out", out])
            got = manifest_outputs(out) if code == 0 else None
            if got != RECORDED[name]:
                sys.exit(f"round {round_}, {name}: exit {code}, outputs {got} are not "
                         f"the recorded {RECORDED[name]}")


def check_replot(top: str):
    runs = os.path.join(top, "out")
    for out in sorted(os.path.join(runs, name) for name in os.listdir(runs)):
        if any(name.endswith(".csv") for name in os.listdir(out)):
            qwtopo("replot", "--out", out)
        want = manifest_outputs(out)
        got = {}
        for name in want:
            with open(os.path.join(out, name), "rb") as fh:
                got[name] = hashlib.sha256(fh.read()).hexdigest()
        if got != want:
            sys.exit(f"{out}: hashes {got} are not the manifest {want}")


def refuse(token):
    raise ValueError(f"non-finite JSON token {token}")


def check_json(top: str):
    for cfg in CONFIGS:
        out = os.path.join(top, "json", os.path.basename(cfg).removesuffix(".json"))
        qwtopo("run", "--config", cfg, "--out", out, "--format", "json")
        for name in sorted(os.listdir(out)):
            if name.endswith(".json"):
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    try:
                        json.loads(fh.read(), parse_constant=refuse)
                    except ValueError as exc:
                        sys.exit(f"{out}/{name}: {exc}")


#: The modules that only `run` and `replot` use.
RUN_ONLY = ("numpy", "dataclasses", "inspect", "hashlib", "csv", "datetime", "qwtopo.dataio",
            "copy", "__future__")

#: `python -m qwtopo ARGS...` through `runpy`, printing the exit code and the
#: modules of RUN_ONLY it added to those the interpreter started with.
VERIFY_PROBE = f"""
import runpy, sys
started = set(sys.modules)
sys.argv = ["qwtopo", *sys.argv[1:]]
try:
    runpy.run_module("qwtopo", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, [m for m in {RUN_ONLY!r} if m in sys.modules and m not in started])
"""


def check_verify_modules():
    cfg = os.path.join(HERE, "..", "configs", "edge_localization.json")
    done = subprocess.run([sys.executable, "-c", VERIFY_PROBE, "verify", "--config", cfg],
                          capture_output=True, text=True)
    last = done.stdout.splitlines()[-1:]
    if last != ["0 []"]:
        sys.exit(f"verify ended with {last}, not ['0 []']: {done.stderr.strip()}")


#: `entrypoint(ARGS...)`, printing its exit code and the package modules
#: then loaded, without the package's prefix.
MODULES_PROBE = """
import contextlib, io, sys
from qwtopo.cli import entrypoint
with contextlib.redirect_stdout(io.StringIO()):
    code = entrypoint(sys.argv[1:])
print(code, sorted(m.removeprefix("qwtopo.") for m in sys.modules if m.startswith("qwtopo.")))
"""


def check_run_modules(top: str):
    for cfg in CONFIGS:
        name = os.path.basename(cfg)
        out = os.path.join(top, "modules", name.removesuffix(".json"))
        done = subprocess.run([sys.executable, "-c", MODULES_PROBE, "run", "--config", cfg,
                               "--out", out], capture_output=True, text=True)
        if done.stdout.splitlines() != [f"0 {MODULES[name]}"]:
            sys.exit(f"{name}: run printed {done.stdout.splitlines()}, not the modules "
                     f"{MODULES[name]}: {done.stderr.strip()}")


CHECKS = (
    ("walk.evolve steps on the package alone", lambda top: check_evolve()),
    ("verify of every shipped config prints its recorded estimates and nothing else",
     lambda top: check_estimates()),
    ("every shipped config verifies and runs to its recorded hashes", check_runs),
    ("every shipped config run twice in one interpreter gives its recorded hashes",
     check_twice),
    ("replot rewrites no byte of any run", check_replot),
    ("every JSON file of a --format json run is strict", check_json),
    ("verify loads no module that only run and replot use",
     lambda top: check_verify_modules()),
    ("a run of every shipped config loads only its kind's modules", check_run_modules),
)


def main():
    warnings.simplefilter("error", RuntimeWarning)
    with tempfile.TemporaryDirectory() as top:
        for title, check in CHECKS:
            check(top)
            print(f"ok: {title}")


if __name__ == "__main__":
    main()
