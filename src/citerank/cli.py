"""Command-line front end: rank datasets, compare rules, z-tests, simulations."""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import TextIO

from ._version import FORMATS, __version__

# The module of each name the commands call; each command binds just its own modules' names.
_MODULE_OF = {name: module for module, names in [
    ("data_pipeline", "emit_paper_percentiles emit_ranking_table load_records run_analysis"),
    ("indicator_core", "P100 PercentileRule RankClassScheme ReferenceScope compute_percentiles top_count"),
    ("rank_stats", "ztest_proportions"),
    ("synth_bench", "DivergenceResult divergence_from_report emit_divergence fixture_path load_experiment_config "
                    "override_seeds run_divergence_experiment"),
] for name in names.split()}


def _bind(*modules: str) -> None:
    """Bind here every name of the table from ``modules``; a name already set (by a tracer, say) keeps its value."""
    for name, module in _MODULE_OF.items():
        if module in modules:
            globals().setdefault(name, getattr(importlib.import_module(f".{module}", __package__), name))


def __getattr__(name: str) -> object:
    """A name of the table read before its command ran: bind its module (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_MODULE_OF[name])
    return globals()[name]


class _UsageError(ValueError):
    """Bad flag combinations detected after argparse; exits with status 2."""


def _token(kind: str) -> Callable[[str], object]:
    """An argparse ``type``: ``from_token`` of the class named ``kind``, its ``ValueError`` a usage error."""

    def convert(token: str) -> object:
        try:
            return __getattr__(kind).from_token(token)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _distinct(kind: str, chosen: Sequence, attribute: str) -> tuple:
    """``chosen`` as a tuple; two items that print one column label are a usage error."""
    seen: set[str] = set()
    for text in (getattr(item, attribute) for item in chosen):
        if text in seen:
            raise _UsageError(f"duplicate {kind}: {text}")
        seen.add(text)
    return tuple(chosen)


# Characters per write: a slice is encoded on its own, so no bytes copy of a whole report is made.
WRITE_SLICE = 1 << 20


def _write(text: str, output: str | None) -> None:
    """Write ``text`` to stdout, or as UTF-8 to the file ``output``, in slices of :data:`WRITE_SLICE`.

    A reader that closes stdout early ends the output, not the run: the rest
    of the text is dropped and stdout is pointed at the null device, so the
    flush at exit raises nothing either.
    """
    if output is not None:
        with open(output, "w", encoding="utf-8") as stream:
            _write_slices(stream, text)
        return
    try:
        _write_slices(sys.stdout, text)
        sys.stdout.flush()  # a text that fits the buffer meets a closed pipe here, not at exit
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_slices(stream: TextIO, text: str) -> None:
    for start in range(0, len(text), WRITE_SLICE):
        stream.write(text[start:start + WRITE_SLICE])


def _write_divergence(result: DivergenceResult, fmt: str) -> None:
    """Write a divergence report to stdout, after a stderr warning when it correlates only 2 sets."""
    if len(result.set_order) == 2:
        print("warning: correlations over 2 sets are degenerate", file=sys.stderr)
    _write(emit_divergence(result, fmt), None)


def cmd_rank(args: argparse.Namespace) -> int:
    if args.per_paper and args.scheme:
        raise _UsageError("--scheme has no effect with --per-paper")
    _bind("data_pipeline", "indicator_core")
    rules = _distinct("rule", args.rule or [PercentileRule.QUANTILE], "token")
    schemes = _distinct("scheme", args.scheme or [P100], "label")
    records = load_records(args.input)
    if args.per_paper:
        text = emit_paper_percentiles(records, rules, args.scope, args.format)
    else:
        text = emit_ranking_table(run_analysis(records, rules, schemes, args.scope), args.format)
    _write(text, args.output)
    return 0


def cmd_compare_rules(args: argparse.Namespace) -> int:
    _bind("data_pipeline", "synth_bench")
    rules = _distinct("rule", args.rule or [], "token")
    if len(rules) < 2:
        raise _UsageError("compare-rules needs at least 2 distinct --rule flags")
    report = run_analysis(load_records(args.input), rules, (args.scheme,), args.scope)
    _write_divergence(divergence_from_report(report, args.scheme), args.format)
    return 0


def cmd_ztest(args: argparse.Namespace) -> int:
    _bind("rank_stats")
    count_flags = [args.k1, args.n1, args.k2, args.n2]
    if args.input is not None:
        if any(flag is not None for flag in count_flags):
            raise _UsageError("use either --input with set ids or --k1/--n1/--k2/--n2, not both")
        if args.set_a is None or args.set_b is None:
            raise _UsageError("dataset mode requires --set-a and --set-b")
        _bind("data_pipeline", "indicator_core")
        threshold = () if args.threshold is None else (args.threshold,)  # top_count's default otherwise
        assignment = compute_percentiles(load_records(args.input), args.rule or PercentileRule.QUANTILE,
                                         args.scope or ReferenceScope.GLOBAL_POOL)
        k1, n1 = top_count(assignment, args.set_a, *threshold)
        k2, n2 = top_count(assignment, args.set_b, *threshold)
    else:
        dataset_flags = {"--set-a": args.set_a, "--set-b": args.set_b, "--threshold": args.threshold,
                         "--rule": args.rule, "--scope": args.scope}
        given = [flag for flag, value in dataset_flags.items() if value is not None]
        if given:
            raise _UsageError(f"{given[0]} needs --input (dataset mode)")
        if any(flag is None for flag in count_flags):
            raise _UsageError("count mode requires all of --k1 --n1 --k2 --n2")
        k1, n1, k2, n2 = count_flags
    result = ztest_proportions(k1, n1, k2, n2)
    lines = [
        f"z={result.z:.6f}",
        f"p_two_sided={result.p_two_sided:.6f}",
        f"pooled_proportion={result.pooled_proportion:.6f}",
    ]
    if args.one_sided:
        lines.append(f"p_one_sided={result.p_one_sided:.6f}")
    _write("\n".join(lines) + "\n", None)
    return 0


def _resolve_config(token: str) -> Path:
    path = Path(token)
    if path.exists():
        return path
    name = token if token.endswith(".json") else f"{token}.json"
    packaged = fixture_path(name)
    if packaged.exists():
        return packaged
    raise ValueError(f"experiment config not found: {token}")


def cmd_simulate(args: argparse.Namespace) -> int:
    # numpy, loaded by generate_set, makes no BLAS call here, and OpenBLAS would start idle worker
    # threads when it loads; a value the user set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _bind("synth_bench")
    config = load_experiment_config(_resolve_config(args.config))
    if args.seed is not None:
        config = override_seeds(config, args.seed)
    result = run_divergence_experiment(config.sets, config.rules, config.scheme, config.scope)
    _write_divergence(result, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citerank",
        description="Citation-percentile impact indicators (I3) and rule comparison.",
    )
    parser.add_argument("--version", action="version", version=f"citerank-i3 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    rule, scheme, scope = _token("PercentileRule"), _token("RankClassScheme"), _token("ReferenceScope")

    rank = sub.add_parser("rank", help="rank sets by %%I3 (or emit per-paper percentiles)")
    rank.add_argument("--input", required=True, help="CSV with set_id,paper_id,citations[,doc_type]")
    rank.add_argument("--rule", action="append", type=rule,
                      help="counting rule (repeatable): quantile | lb09 | rousseau-raw | rousseau; default quantile")
    rank.add_argument("--scheme", action="append", type=scheme,
                      help="rank-class scheme (repeatable): p100 | nsf6 | top<P>; default p100")
    rank.add_argument("--scope", type=scope, default="global",
                      help="reference group: global | per-set | per-doc-type | per-set-and-doc-type")
    rank.add_argument("--format", choices=FORMATS, default="delimited")
    rank.add_argument("--output", help="write the report here instead of stdout")
    rank.add_argument("--per-paper", action="store_true",
                      help="emit the per-paper percentile table instead of the set ranking")
    rank.set_defaults(func=cmd_rank)

    compare = sub.add_parser("compare-rules", help="correlate per-set %%I3 across counting rules")
    compare.add_argument("--input", required=True)
    compare.add_argument("--rule", action="append", type=rule, help="repeat for each rule (>= 2)")
    compare.add_argument("--scheme", type=scheme, default="p100")
    compare.add_argument("--scope", type=scope, default="global")
    compare.add_argument("--format", choices=FORMATS, default="delimited")
    compare.set_defaults(func=cmd_compare_rules)

    ztest = sub.add_parser("ztest", help="z-test for independent proportions")
    ztest.add_argument("--k1", type=int)
    ztest.add_argument("--n1", type=int)
    ztest.add_argument("--k2", type=int)
    ztest.add_argument("--n2", type=int)
    ztest.add_argument("--input", help="dataset mode: derive counts from two sets")
    ztest.add_argument("--set-a", help="first set id (dataset mode)")
    ztest.add_argument("--set-b", help="second set id (dataset mode)")
    ztest.add_argument("--threshold", type=float,
                       help="success = paper at/above this percentile (dataset mode); default 90")
    ztest.add_argument("--rule", type=rule, help="counting rule (dataset mode); default quantile")
    ztest.add_argument("--scope", type=scope, help="reference group (dataset mode); default global")
    ztest.add_argument("--one-sided", action="store_true",
                       help="also print the one-sided p-value")
    ztest.set_defaults(func=cmd_ztest)

    simulate = sub.add_parser("simulate", help="run a synthetic rule-divergence experiment")
    simulate.add_argument("--config", required=True,
                          help="experiment JSON, or the name of a packaged fixture")
    simulate.add_argument("--seed", type=int, help="re-seed every set as seed + position")
    simulate.add_argument("--format", choices=FORMATS, default="delimited")
    simulate.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
