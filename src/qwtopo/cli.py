"""Command line front end: run experiments, verify configs, redraw plots.

Exit codes: 0 on success, 2 for configuration errors, 3 for runtime
failures (I/O, unrecognized data, numerical dead ends).  `run` writes the
manifest of the files its runner's `runners.Outputs` lists.

`verify` and every exit 2 load only what checking a config needs: this
module, `config` and the cost model `budget`, and of the standard library
`argparse` and `json`; no numpy, `dataio`, `copy`, `dataclasses`,
`hashlib`, `csv` or `datetime`.  `run` imports `dataio` once it has
checked its config, then `runners`, with numpy and the engine modules of
the run's kind, and `datetime`; `replot` imports `runners` and `dataio`.
What every command uses, `argparse` and `json` among it, stays at the top.
"""

import argparse
import os
import sys

from . import __version__, config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwtopo",
        description="Scattering invariants of split-step walks: simulation, "
                    "disorder ensembles, edge localization, apparatus emulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment described by a config")
    run.add_argument("--config", required=True, help="JSON experiment description")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    run.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="table format")
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="validate a config and print estimates")
    verify.add_argument("--config", required=True)
    verify.set_defaults(func=_cmd_verify)

    replot = sub.add_parser("replot", help="redraw plots from a run directory")
    replot.add_argument("--out", default="out", help="directory holding tables")
    replot.set_defaults(func=_cmd_replot)
    return parser


_PARSER = None


def _parser() -> argparse.ArgumentParser:
    """The parser of every `entrypoint` call in this process, built on the
    first: parsing leaves a parser as it was, so each call can reuse it."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def entrypoint(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except config.ConfigInvalid as exc:
        print(f"ConfigInvalid at field path {exc.path}: {exc.reason}"
              if exc.path else f"ConfigInvalid: {exc.reason}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - outer shell maps to exit code
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _cmd_verify(args) -> int:
    cfg = config.load(args.config)
    _, est = config.validate(cfg)
    print(f"ok: {cfg['experiment']} config is valid")
    print(f"estimated simulations: {est['simulations']}")
    print(f"estimated window: {est['window_sites']} sites")
    print(f"estimated site-steps: {est['site_steps']}")
    print("estimated walkers per batch: "
          + ", ".join(f"{walkers} at {field}" for field, walkers in est["batch_walkers"]))
    if not est["exact"]:
        print("note: each distinct disorder pattern is stepped once, so simulations, "
              "site-steps and walkers per batch are upper bounds")
    for note in config.config_warnings(cfg):
        print(f"warning: {note}")
    return 0


def _cmd_run(args) -> int:
    cfg = config.load(args.config)
    # a --seed override obeys the config's seed rule; the manifest hashes cfg as written
    resolved, _ = config.validate(cfg if args.seed is None else {**cfg, "seed": args.seed})
    for note in config.config_warnings(cfg):
        print(f"warning: {note}", file=sys.stderr)
    from .dataio import IoFailure, RunManifest, config_hash

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {args.out}: {exc}") from exc
    from datetime import datetime, timezone

    from . import runners
    out = runners.Outputs(args.out, args.format)
    runners.RUNNERS[cfg["experiment"]](resolved, resolved["seed"], out)
    manifest = RunManifest(__version__, resolved["seed"], config_hash(cfg),
                           datetime.now(timezone.utc).isoformat())
    for path in out.paths:
        manifest.add(path)
    manifest.write(os.path.join(args.out, "manifest.json"))
    print(f"wrote {len(out.paths)} files and manifest.json to {args.out}")
    return 0


def _cmd_replot(args) -> int:
    """Redraw <kind>.svg from each <kind>.csv, as `run` drew it (`runners.replot`)."""
    from . import runners
    from .dataio import UnknownDataKind

    tables, drawn = runners.replot(args.out)
    if tables == 0:
        raise UnknownDataKind(f"no recognized tables in {args.out}")
    print(f"redrew {drawn} plots in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(entrypoint())
