"""Command-line interface.

    blogwatch run --config run.conf [--mode online|batch] [--fixture DIR]
                  [--max-pages N] [--report PATH]
    blogwatch report PATH          # re-render a saved report or checkpoint
    blogwatch gen-fixture --spec world.conf --out DIR

Exit codes: 0 success; 1 configuration error, a setting or input file
that is missing, unreadable or invalid (found before any network
activity); 2 runtime failure.
"""
import argparse
import logging
import sys

from .errors import ConfigError
from .graph import FrontierGraph
from .harness import generate_world, materialize_world, parse_world_spec
from .pipeline import load_config, parse_report, render_console, run
from .settings import is_data_line, read_lines


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.mode:
        config.mode = args.mode
    if args.fixture:
        config.fixture_path = args.fixture
    if args.max_pages is not None:
        config.max_pages = args.max_pages
    if args.report:
        config.report_path = args.report
    result = run(config)
    sys.stdout.write(render_console(result.report))
    if config.report_path:
        print(f"report written to {config.report_path}")
    if config.checkpoint_path:
        print(f"graph checkpoint written to {config.checkpoint_path}")
    return 0


def _cmd_report(args) -> int:
    """A saved report's first data line is its ``report_version`` line;
    any other file is read as a checkpoint, so an empty checkpoint shows an
    empty graph and a file that is neither fails naming its path and line.
    The file is read once."""
    lines = read_lines(args.path)
    first = next(filter(is_data_line, lines), "")
    if first.strip().startswith("report_version"):
        sys.stdout.write(render_console(parse_report(args.path, lines)))
        return 0
    graph = FrontierGraph.load(args.path, lines=lines)
    for key, value in sorted(graph.stats().items()):
        print(f"{key:<12} {value}")
    return 0


def _cmd_gen_fixture(args) -> int:
    spec = parse_world_spec(args.spec)
    world = generate_world(spec)
    materialize_world(world, args.out)
    print(f"world with {len(world.sites)} URLs written to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="blogwatch",
                                     description="online blog monitoring pipeline")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the monitoring pipeline")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--mode", choices=("online", "batch"))
    p_run.add_argument("--fixture", help="fixture directory (batch mode)")
    p_run.add_argument("--max-pages", type=int, dest="max_pages")
    p_run.add_argument("--report", help="write the machine-readable report here")
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="re-render a report or checkpoint")
    p_report.add_argument("path")
    p_report.set_defaults(func=_cmd_report)

    p_gen = sub.add_parser("gen-fixture", help="materialize a synthetic world")
    p_gen.add_argument("--spec", required=True, help="world spec (key = value file)")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=_cmd_gen_fixture)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: report, don't traceback-spam
        logging.getLogger(__name__).debug("runtime failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
