"""Command-line interface.

Subcommands: validate, run, synth, render-map, render-dashboard. A JSON
config file names the inputs; flags override individual settings. Exit
codes: 0 success, 1 completed with data-quality warnings, 2 fatal.
"""

from __future__ import annotations

import argparse
import os
import sys

# NumPy's bundled OpenBLAS starts worker threads when it loads, and each one
# spins for a while before it sleeps. rankdiff calls no BLAS routine, so they
# only burn CPU, and an inherited value would buy nothing. OpenBLAS reads this
# variable once, as it loads, so it must be set before `pipeline` first
# imports NumPy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import pipeline
from .errors import ConfigError, PipelineError, read_fields, text
from .model import Group

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_FATAL = 2


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--basis", help="ranking basis override: "
                        + ", ".join(pipeline.BASIS_ALIASES))
    parser.add_argument("--regime-min", dest="regime_min", help="regime lower bound (strict)")
    parser.add_argument("--regime-max", dest="regime_max", help="regime upper bound (inclusive)")
    parser.add_argument("--group", help="analysis group for classification and map: "
                        + ", ".join(g.value for g in Group))
    parser.add_argument("--out", help="output directory override")


def _load_config(args: argparse.Namespace) -> pipeline.RunConfig:
    cfg = pipeline.RunConfig.from_file(args.config)
    return cfg.with_overrides(
        basis=args.basis,
        regime_min=args.regime_min,
        regime_max=args.regime_max,
        group=args.group,
        out=args.out,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankdiff",
        description="rank-difference disparity analytics for municipality-level case counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="load all inputs and emit the quality report")
    _add_override_flags(p_validate)

    p_run = sub.add_parser("run", help="run the full pipeline and write the output tree")
    _add_override_flags(p_run)

    p_synth = sub.add_parser("synth", help="generate canonical fixture files from a synth spec")
    p_synth.add_argument("spec", help="path to the synth spec JSON")
    p_synth.add_argument("--out", default="synth_out", help="fixture output directory")

    p_map = sub.add_parser("render-map", help="render only the classification choropleth")
    _add_override_flags(p_map)

    p_dash = sub.add_parser("render-dashboard", help="render one municipality dashboard")
    _add_override_flags(p_dash)
    p_dash.add_argument("--id", required=True, dest="municipality_id",
                        help="municipality id to render")

    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    report = pipeline.validate(cfg)
    sys.stdout.write(report.to_json())
    return EXIT_WARNINGS if report.has_warnings else EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    result = pipeline.run(cfg)
    print(f"wrote {result.n_dashboards} dashboards and reports under {result.out}")
    if result.report.has_warnings:
        print("completed with data-quality warnings (see quality.json)", file=sys.stderr)
        return EXIT_WARNINGS
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    from . import synth

    spec = synth.SynthSpec.from_file(args.spec)
    out = read_fields({"--out": args.out}, {"--out": text}, ConfigError, "command line")["--out"]
    paths = synth.write_fixture(spec, out)
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return EXIT_OK


def _cmd_render_map(args: argparse.Namespace) -> int:
    result = pipeline.render_map(_load_config(args))
    print(f"wrote {result.path}")
    return EXIT_WARNINGS if result.report.has_warnings else EXIT_OK


def _cmd_render_dashboard(args: argparse.Namespace) -> int:
    result = pipeline.render_dashboard(_load_config(args), args.municipality_id)
    print(f"wrote {result.path}")
    return EXIT_WARNINGS if result.report.has_warnings else EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "run": _cmd_run,
    "synth": _cmd_synth,
    "render-map": _cmd_render_map,
    "render-dashboard": _cmd_render_dashboard,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PipelineError as exc:
        print(f"rankdiff: {exc.module}: {exc}", file=sys.stderr)
        return EXIT_FATAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
