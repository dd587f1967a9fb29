"""The package functions the benchmark calls directly, listed once.

`bench/run.py` calls these in its kernel grid and, for
`config.estimate_ratio`, `config.estimate` of each raw config;
`bench/gate.py` calls `DisorderSpec.for_steps` and `ensemble_r0`.
`test_reachability` declares them as reached, and `test_bench_hooks` looks
each one up, so deleting or renaming one, which breaks `bench/run.py
--trace 1`, fails both.  A change to what `bench/` calls is recorded here.
"""

#: (file, qualified name) of each function the benchmark calls.
BENCH_CALLS = [("config.py", "estimate"),
               ("disorder.py", "DisorderSpec.for_steps"), ("disorder.py", "ensemble_r0"),
               ("scattering.py", "ScatteringSystem.for_steps"),
               ("scattering.py", "ScatteringSystem.protocol"),
               ("walk.py", "WalkerState.localized"), ("walk.py", "evolve")]
