"""Command-line entry point.

Exit codes: 0 ok, 1 usage/config/schema problems, 2 field-solver failure,
3 escaped-mass gate.
"""

import argparse
import sys

from . import config as _config
from . import diagnostics, fieldsolve, runner

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_ESCAPED = 3


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for solver failures; argparse defaults to 2
    # on usage errors, so route those to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="vpme",
        description="Ion particle-mesh runs with massless-electron screening and bound audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("--config", required=True, help="scenario INI file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the configured seed")

    p_sweep = sub.add_parser("sweep", help="run the scenario once per epsilon")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--epsilon", required=True, help="comma-separated values, e.g. 1.0,0.7,0.5")
    p_sweep.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="audit recorded bounds, write report.json")
    p_verify.add_argument("--path", required=True, help="run or sweep directory")

    p_plot = sub.add_parser("plot-data", help="emit plot-ready TSV tables")
    p_plot.add_argument("--path", required=True, help="run or sweep directory")
    return parser


def _cmd_run(args):
    cfg = _config.load_config(args.config)
    out = runner.run(cfg, args.out, seed=args.seed)
    print(f"run ok: {out / runner.TIMESERIES_NAME}")
    return EXIT_OK


def _cmd_sweep(args):
    cfg = _config.load_config(args.config)
    epsilons = [float(tok) for tok in args.epsilon.split(",") if tok.strip()]
    if not epsilons:
        raise _config.ConfigError(f"--epsilon {args.epsilon!r} parses to an empty list")
    index_path = runner.sweep(cfg, epsilons, args.out)
    print(f"sweep ok: {index_path}")
    return EXIT_OK


def _cmd_verify(args):
    report = runner.verify_path(args.path)
    print(f"report written: {args.path}/{runner.REPORT_NAME}")
    print(f"verdict: {report['verdict']}")
    return EXIT_OK


def _cmd_plot(args):
    for path in runner.plot_data(args.path):
        print(path)
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "plot-data": _cmd_plot,
    }[args.command]
    try:
        return handler(args)
    except fieldsolve.FieldSolveError as exc:
        print(f"vpme: field solve failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except runner.EscapedMassError as exc:
        print(f"vpme: {exc}", file=sys.stderr)
        return EXIT_ESCAPED
    except (
        _config.ConfigError,
        diagnostics.SchemaError,
        FileNotFoundError,
        KeyError,
        ValueError,
    ) as exc:
        print(f"vpme: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
