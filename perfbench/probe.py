"""Set-up probe: import paulishift and parse a workload's generated inputs.

    python3 perfbench/probe.py <paulishift arguments>

Prints ``time.monotonic()`` once the CLI module is imported and the
arguments (and the config file they name) are parsed, before any simulation
or closed-form call. The runner subtracts its own monotonic clock reading
taken just before it started this process; on Linux both read the same
system-wide clock. Exits 2 if the inputs do not parse.
"""
import sys
import time

from paulishift import cli


def main(argv: list[str]) -> int:
    args = cli.build_parser().parse_args(argv)
    if args.command == "analytic":
        cli.parse_int_grid(args.n)
        cli.parse_float_list(args.eta)
    else:
        _, errors = cli.load_config(args.config)
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 2
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
