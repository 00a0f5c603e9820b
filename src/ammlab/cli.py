"""Command-line interface: quote, classify, simulate, curve-table.

Exit codes: 0 on success, 1 for usage errors, 2 when the engine or the
probe rejects the request.  Diagnostics go to stderr; data goes to stdout
unless --out names a file.

A command runs with the cyclic garbage collector paused: ammlab builds no
reference cycles, so the collector would only rescan the containers a job
keeps alive.  `main` restores the collector's prior state on return.
Argument parsing runs before the pause, since argparse does leave cycles.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import sys
from dataclasses import fields
from operator import attrgetter

from .core import AmmError
from .engine import EXACT_IN, EXACT_OUT, Quote, TradeOrder, load_pool, load_pool_config
from .engine import quote as engine_quote
from .probe import DEFAULT_TRIALS, classify, report_to_csv
from .sim import load_price_series, load_scenario, metrics_to_csv, run_scenario

QUOTE_FIELDS = tuple(f.name for f in fields(Quote))

CURVE_TABLE_HEADER = "amount_in,amount_out,mean_price,spot_after"
_CURVE_TABLE_ROW = attrgetter(*CURVE_TABLE_HEADER.split(","))  # Quote fields


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_quote(args: argparse.Namespace) -> int:
    pool, _ = load_pool(args.pool)
    order = TradeOrder(
        trader="cli",
        token_in=args.token_in,
        token_out=args.token_out,
        amount=args.amount,
        kind=args.kind,
    )
    result = engine_quote(pool, order)
    lines = [
        f"{field} {getattr(result, field):.6f}" for field in QUOTE_FIELDS
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    config = load_pool_config(args.pool)
    report = classify(
        config, seed=args.seed, trials=args.trials, pool_name=args.pool
    )
    _emit(report_to_csv(report), args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    series = load_price_series(args.prices) if args.prices else None
    metrics = run_scenario(scenario, price_series=series)
    _emit(metrics_to_csv(metrics), args.out)
    return 0


def _cmd_curve_table(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise AmmError(f"samples must be >= 1: {args.samples}")
    pool, _ = load_pool(args.pool)
    scale = pool.reserves[0] if pool.reserves[0] > 0.0 else 1.0
    # from 1e-3 of the scale, but no less than the least normal float, whose
    # log is finite, up to the scale
    lo, hi = max(1e-3 * scale, sys.float_info.min), scale
    lines = [CURVE_TABLE_HEADER]
    for index in range(args.samples):
        t = index / (args.samples - 1) if args.samples > 1 else 0.0
        amount = math.exp(math.log(lo) + t * (math.log(hi) - math.log(lo)))
        order = TradeOrder("cli", pool.tokens[0], pool.tokens[1], amount, EXACT_IN)
        lines.append(",".join(map(repr, _CURVE_TABLE_ROW(engine_quote(pool, order)))))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


@functools.cache  # one parser per process: `parse_args` does not mutate it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ammlab",
        description=(
            "Deterministic AMM toolkit: price quotes, taxonomy classification, "
            "scenario simulation, and curve tables."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    quote_parser = subparsers.add_parser(
        "quote", help="price a single trade against a pool"
    )
    quote_parser.add_argument("--pool", required=True, help="built-in name or file")
    quote_parser.add_argument(
        "--in", dest="token_in", required=True, help="token paid in"
    )
    quote_parser.add_argument(
        "--out", dest="token_out", required=True, help="token received"
    )
    quote_parser.add_argument("--amount", type=float, required=True)
    quote_parser.add_argument(
        "--kind", choices=[EXACT_IN, EXACT_OUT], default=EXACT_IN
    )
    quote_parser.set_defaults(handler=_cmd_quote, out=None)

    classify_parser = subparsers.add_parser(
        "classify", help="probe a pool and print its taxonomy report"
    )
    classify_parser.add_argument("--pool", required=True)
    classify_parser.add_argument("--seed", type=int, required=True)
    classify_parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    classify_parser.add_argument("--out", default=None, help="write CSV here")
    classify_parser.set_defaults(handler=_cmd_classify)

    simulate_parser = subparsers.add_parser(
        "simulate", help="run a scenario script and print metrics"
    )
    simulate_parser.add_argument("--scenario", required=True)
    simulate_parser.add_argument("--prices", default=None)
    simulate_parser.add_argument("--out", default=None, help="write CSV here")
    simulate_parser.set_defaults(handler=_cmd_simulate)

    table_parser = subparsers.add_parser(
        "curve-table", help="tabulate quotes over log-spaced trade sizes"
    )
    table_parser.add_argument("--pool", required=True)
    table_parser.add_argument("--samples", type=int, required=True)
    table_parser.add_argument("--out", default=None, help="write CSV here")
    table_parser.set_defaults(handler=_cmd_curve_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        return 0 if exit_request.code == 0 else 1
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except (AmmError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
