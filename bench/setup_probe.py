"""Set-up cost of one qwtopo run, timed inside a fresh interpreter.

    python3 bench/setup_probe.py SRC_DIR CONFIG [CONFIG ...]

Times `import qwtopo.cli`, then `config.load` and `config.validate` of
each config, and prints the three durations in seconds as one JSON
object.  Interpreter start-up itself is not included.
"""

import json
import sys
import time


def main(src, paths):
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import qwtopo.cli  # noqa: F401  - the import is what is timed
    from qwtopo import config
    t1 = time.perf_counter()
    cfgs = [config.load(path) for path in paths]
    t2 = time.perf_counter()
    for cfg in cfgs:
        config.validate(cfg)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "validate_s": t3 - t2}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
