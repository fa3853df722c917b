"""Command-line pipeline: simulate, infer, stress, evaluate, sweep.

Every subcommand is deterministic given its flags: one ``--seed`` feeds a
documented sub-seed derivation (see :mod:`sbcn.seeds`), so reruns write
byte-identical output files.  Progress goes to stderr, results to files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import get_type_hints

from .bootstrap import edge_confidence, prune
from .classifier import stress_blocks, stress_tree
from .datagen import GENERATOR_MODES, generate_instance
from .evaluation import RATE_FIELDS, SweepConfig, arc_contingency, run_sweep
from .learn import CRITERIA, LEARNERS, PENALTIES, LearnOptions, learn_model
from .model import (
    BinaryDataset,
    SbcnModel,
    _csv_body,
    _csv_head,
    dag_from_json,
    dag_to_json,
)


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def _read(path: str) -> str:
    with open(path, encoding="utf-8-sig") as fh:  # skips a leading byte-order mark
        return fh.read()


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is not in [0, 1]")
    return value


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


def _positive(text: str) -> int:
    value = _count(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"{text} is not positive")
    return value


#: The annotated type of each ``LearnOptions`` field, resolved once.
_LEARN_KINDS = get_type_hints(LearnOptions)


def _search(field: str):
    """Argparse type for a ``LearnOptions`` field: the text read as the
    field's annotated type and checked by that class's own check, so a bad
    value is a usage error naming the flag."""
    kind = _LEARN_KINDS[field]

    def parse(text: str):
        value = kind(text)
        try:
            LearnOptions(**{field: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    parse.__name__ = kind.__name__  # so "x" reads "invalid int value: 'x'", as for type=int
    return parse


def _cmd_simulate(args) -> int:
    params = _read(args.spec) if args.spec else {}
    spec, truth, data = generate_instance(args.mode, params, args.samples, args.seed)
    _write(args.out_data, data.to_csv())
    _log(f"wrote {data.m}x{data.n} dataset to {args.out_data}")
    if args.out_truth:
        _write(args.out_truth, dag_to_json(truth, spec.names))
        _log(f"wrote ground truth ({len(truth.edges)} arcs) to {args.out_truth}")
    return 0


def _cmd_infer(args) -> int:
    data = BinaryDataset.from_csv(_read(args.data))
    # each search flag is named after the LearnOptions field it sets
    options = LearnOptions(
        **{f.name: getattr(args, f.name) for f in fields(LearnOptions) if f.name in args}
    )
    model = learn_model(data, options, args.learner)
    _log(f"learned {len(model.dag.edges)} arcs with {args.learner}/{args.criterion}")
    if args.bootstrap > 0:
        report = edge_confidence(
            data, options, args.bootstrap, model=model, learner=args.learner,
            threads=args.threads,
        )
        report = replace(report, threshold=args.confidence)
        model = prune(model, report, data, args.confidence, options.smoothing)
        _log(
            f"bootstrap B={args.bootstrap}, threshold {args.confidence}: "
            f"{len(model.dag.edges)} arcs survive"
        )
        if args.out_report:
            _write(args.out_report, report.to_json())
    _write(args.out_model, model.to_json())
    return 0


def _parse_clamp(text: str, model: SbcnModel) -> dict[int, int]:
    index = model.name_to_index()
    assignment: dict[int, int] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in index:
            raise ValueError(f"unknown variable {name!r} in --clamp")
        if value.strip() not in ("0", "1"):
            raise ValueError(f"clamp value for {name} must be 0 or 1")
        if index[name] in assignment:
            raise ValueError(f"variable {name!r} named twice in --clamp")
        assignment[index[name]] = int(value)
    if not assignment:
        raise ValueError("--clamp parsed to an empty assignment")
    return assignment


def _cmd_stress(args) -> int:
    """Write the tree of ``stress_tree`` and the rows of ``stress_blocks``."""
    model = SbcnModel.from_json(_read(args.model))
    if args.clamp:
        assignment = _parse_clamp(args.clamp, model)
        _log(f"clamping {len(assignment)} variables from --clamp; classification skipped")
    else:
        tree, n_risky, cut, paths = stress_tree(
            model, args.samples_for_tree, args.risky_fraction, args.seed)
        _log(
            f"labeled {n_risky}/{args.samples_for_tree} scenarios risky "
            f"(up-count cut {'n/a' if cut is None else repr(cut)})"
        )
        _log(tree.to_text().rstrip("\n"))
        if args.out_tree:
            _write(args.out_tree, tree.to_json())
        if not paths:
            raise ValueError(
                "no risky leaf derivable from the classification tree; "
                "raise --risky-fraction or supply --clamp"
            )
        if args.path_index >= len(paths):
            raise ValueError(f"--path-index {args.path_index} out of range; tree has {len(paths)} risky paths")
        assignment = paths[args.path_index]
        _log(
            "clamping risky path "
            + ", ".join(f"{model.names[i]}={v}" for i, v in sorted(assignment.items()))
            if assignment else "the root leaf is risky, so no factor is clamped"
        )
    head = _csv_head(model.names).encode("utf-8")
    blocks = stress_blocks(model, assignment, args.count, args.seed)
    with open(args.out_scenarios, "wb") as fh:
        fh.write(head)
        for rows in blocks:
            fh.write(_csv_body(rows))
    _log(f"wrote {args.count} stressed scenarios to {args.out_scenarios}")
    return 0


def _cmd_evaluate(args) -> int:
    model = SbcnModel.from_json(_read(args.model))
    truth = dag_from_json(_read(args.truth), model.names)
    stats = arc_contingency(model.dag, truth)
    counts = ("tp", "fp", "fn", "tn")
    row = [str(getattr(stats, f)) for f in counts] + [repr(float(getattr(stats, f))) for f in RATE_FIELDS]
    _write(args.out, ",".join(counts + RATE_FIELDS) + "\n" + ",".join(row) + "\n")
    _log(f"tp={stats.tp} fp={stats.fp} fn={stats.fn} tn={stats.tn}")
    return 0


def _cmd_sweep(args) -> int:
    config = SweepConfig.from_json(_read(args.config))
    report = run_sweep(config, threads=args.threads, log=_log)
    _write(args.out, report.to_csv())
    _log(report.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbcn",
        description="Learn causal factor networks from binary data and generate stress scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic data with known ground truth")
    p.add_argument("--mode", choices=GENERATOR_MODES, default="famafrench")
    p.add_argument("--samples", type=_positive, required=True)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--spec", help="JSON file of generator parameter overrides")
    p.add_argument("--out-data", required=True, help="dataset CSV to write")
    p.add_argument("--out-truth", help="ground-truth DAG JSON to write")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("infer", help="learn a causal network from a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--learner", choices=LEARNERS, default="sbcn")
    p.add_argument("--criterion", choices=CRITERIA, default=LearnOptions.criterion)
    p.add_argument(
        "--penalty",
        choices=PENALTIES,
        default=LearnOptions.penalty,
        help="complexity measure in the score: arc count or free CPT parameters",
    )
    p.add_argument("--bootstrap", type=_count, default=0, metavar="B", help="replicates; 0 disables")
    p.add_argument("--confidence", type=_fraction, default=0.5, help="bootstrap pruning threshold")
    p.add_argument("--seed", type=_search("seed"), default=LearnOptions.seed)
    p.add_argument("--max-iterations", type=_search("max_iterations"),
                   default=LearnOptions.max_iterations)
    p.add_argument("--restarts", type=_search("restarts"), default=LearnOptions.restarts)
    p.add_argument("--smoothing", type=_search("smoothing"), default=LearnOptions.smoothing)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-report", help="bootstrap confidence JSON to write")
    p.add_argument("--threads", type=_count, default=0,
                   help="worker processes, at most one per bootstrap replicate (0 = all cores)")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("stress", help="sample stressed scenarios from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--samples-for-tree", type=_positive, default=1000)
    p.add_argument("--risky-fraction", type=_fraction, default=0.1)
    picker = p.add_mutually_exclusive_group()
    picker.add_argument("--path-index", type=_count, default=0,
                        help="which risky tree path to clamp")
    picker.add_argument("--clamp", help='manual scenario, e.g. "SMB=0,Km=0" (skips the tree)')
    p.add_argument("--count", type=_count, default=100)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--out-scenarios", required=True)
    p.add_argument("--out-tree")
    p.set_defaults(func=_cmd_stress)

    p = sub.add_parser("evaluate", help="score a model against a ground-truth DAG")
    p.add_argument("--model", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="run the benchmark grid from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=_count, default=0, help="worker processes, at most one per task (0 = all cores)")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # rules on two flags, checked before any input is read
    if args.command == "infer" and args.out_report and not args.bootstrap:
        parser.error("--out-report requires --bootstrap > 0")
    if args.command == "stress" and args.clamp and args.out_tree:
        parser.error("--out-tree requires the tree, which --clamp skips")
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        _log(f"error: {str(exc) or type(exc).__name__}")  # a bare MemoryError has no text
        return 1


if __name__ == "__main__":
    sys.exit(main())
