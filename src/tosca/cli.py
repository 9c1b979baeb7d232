"""Command line front end.

Subcommands: ``synth`` writes a synthetic benchmark pair, ``run`` executes one
incremental scenario, ``sweep`` grids lambda x r, ``gradcheck`` verifies the
manual backward pass, ``report`` reprocesses saved JSON results.
"""

from __future__ import annotations

import argparse
import os
import sys

from .data import (load_features, make_splits, replace_file, save_features,
                   synth_gaussian)
from .engine import METHODS, ScenarioConfig, run_scenario
from .luca import LucaConfig, gradient_check
from .optim import L1_MODES, OptimConfig
from .report import emit_plot, emit_report, load_report

GRAD_TOL = 1e-4


def _add_common_run_args(p):
    p.add_argument("--data", required=True, help="training feature file")
    p.add_argument("--test", default=None,
                   help="test feature file (defaults to scoring on --data)")
    p.add_argument("--init", type=int, default=0,
                   help="classes in the base stage (0 = uniform stages)")
    p.add_argument("--inc", type=int, required=True,
                   help="classes added per incremental stage")
    p.add_argument("--seed", type=int, default=1993)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch", type=int, default=48)
    p.add_argument("--lr", type=float, default=0.025)
    p.add_argument("--l1-mode", choices=L1_MODES, default="subgradient")
    p.add_argument("--gate-residual", action="store_true")
    p.add_argument("--reversed", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tosca",
        description="class-incremental learning on frozen features")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic Gaussian benchmark")
    p.add_argument("--d", type=int, default=32)
    p.add_argument("--classes", type=int, default=50)
    p.add_argument("--train-per-class", type=int, default=100)
    p.add_argument("--test-per-class", type=int, default=50)
    p.add_argument("--separation", type=float, default=138.0)
    p.add_argument("--sigma", type=float, default=23.0)
    p.add_argument("--seed", type=int, default=1993)
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="run one incremental scenario")
    _add_common_run_args(p)
    p.add_argument("--method", choices=METHODS, default="tosca")
    p.add_argument("--r", type=int, default=48)
    p.add_argument("--lambda", dest="lambda_l1", type=float, default=5e-4)
    p.add_argument("--out", default=None,
                   help="write the report here (.csv for CSV, else JSON)")
    p.add_argument("--plot", default=None, help="write an SVG stage plot")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="grid lambda x r and tabulate accuracy")
    _add_common_run_args(p)
    p.add_argument("--method", choices=METHODS, default="tosca")
    p.add_argument("--lambdas", default="0,5e-5,5e-4,5e-3,5e-2",
                   help="comma separated L1 strengths")
    p.add_argument("--rs", default="8,16,32,48,64",
                   help="comma separated ranks")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of the backward pass")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=7041)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("report", help="convert saved JSON reports")
    p.add_argument("--in", dest="inputs", action="append", required=True,
                   help="input JSON report (repeatable)")
    p.add_argument("--csv", default=None,
                   help="per-stage CSV (single input only)")
    p.add_argument("--plot", default=None, help="SVG plot over all inputs")
    p.set_defaults(func=_cmd_report)
    return parser


def _cmd_synth(args) -> int:
    _check_targets(f"{args.out}.train.ftr", f"{args.out}.test.ftr")
    train, test = synth_gaussian(args.d, args.classes, args.train_per_class,
                                 args.test_per_class, args.separation,
                                 args.sigma, args.seed)
    save_features(train, f"{args.out}.train.ftr")
    save_features(test, f"{args.out}.test.ftr")
    print(f"wrote {args.out}.train.ftr ({train.n} rows) and "
          f"{args.out}.test.ftr ({test.n} rows), d={train.d}")
    return 0


def _scenario_inputs(args):
    train = load_features(args.data)
    test = load_features(args.test) if args.test else train
    splits = make_splits(train.class_ids, args.init, args.inc, args.seed)
    return train, test, splits


def _make_config(args, r: int, lam: float) -> ScenarioConfig:
    optim = OptimConfig(lr_max=args.lr, epochs=args.epochs,
                        batch_size=args.batch, lambda_l1=lam,
                        l1_mode=args.l1_mode)
    luca = LucaConfig(gate_residual=args.gate_residual, reversed=args.reversed)
    return ScenarioConfig(r=r, luca=luca, optim=optim)


def _check_targets(*paths) -> None:
    """Refuse, before any work, an output path that is a directory or whose
    directory does not exist."""
    for path in filter(None, paths):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise ValueError(f"cannot write {path}: no directory {folder}")
        if os.path.isdir(path):
            raise ValueError(f"cannot write {path}: it is a directory")


def _cmd_run(args) -> int:
    _check_targets(args.out, args.plot)
    train, test, splits = _scenario_inputs(args)
    cfg = _make_config(args, args.r, args.lambda_l1)
    rep = run_scenario(train, test, splits, args.method, cfg, args.seed)
    for s in rep.stages:
        print(f"stage {s['index']}: A_b = {s['A_b']:.2f}  "
              f"selection = {s['selection_accuracy']:.2f}")
    print(f"A_bar = {rep.A_bar:.2f}  ({rep.wall_time_s:.1f}s)")
    if args.out:
        fmt = "csv" if str(args.out).endswith(".csv") else "json"
        emit_report(rep, args.out, fmt)
        print(f"wrote {args.out}")
    if args.plot:
        emit_plot([rep], args.plot)
        print(f"wrote {args.plot}")
    return 0


def _number_list(text: str, kind) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"bad number list {text!r}") from None


def _cmd_sweep(args) -> int:
    _check_targets(args.out)
    train, test, splits = _scenario_inputs(args)
    lambdas = _number_list(args.lambdas, float)
    ranks = _number_list(args.rs, int)
    if not lambdas or not ranks:
        raise ValueError("empty sweep grid")
    lines = ["lambda,r,A_B,A_bar"]
    for lam in lambdas:
        for r in ranks:
            cfg = _make_config(args, r, lam)
            rep = run_scenario(train, test, splits, args.method, cfg,
                               args.seed)
            last = rep.stages[-1]["A_b"]
            lines.append(f"{lam:g},{r},{last:.6f},{rep.A_bar:.6f}")
            print(f"lambda={lam:g} r={r}: A_B={last:.2f} A_bar={rep.A_bar:.2f}")
    replace_file(args.out, ["\n".join(lines).encode() + b"\n"])
    print(f"wrote {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    err = gradient_check(trials=args.trials, seed=args.seed)
    print(f"max relative error: {err:.3e} (tolerance {GRAD_TOL:g})")
    return 0 if err <= GRAD_TOL else 1


def _cmd_report(args) -> int:
    if args.csv is None and args.plot is None:
        raise ValueError("nothing to do; pass --csv and/or --plot")
    _check_targets(args.csv, args.plot)
    reps = [load_report(p) for p in args.inputs]
    if args.csv is not None:
        if len(reps) != 1:
            raise ValueError("csv output takes exactly one report")
        emit_report(reps[0], args.csv, "csv")
        print(f"wrote {args.csv}")
    if args.plot is not None:
        emit_plot(reps, args.plot)
        print(f"wrote {args.plot}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
