"""Command-line interface.

Subcommands:
  gen-dataset   write a synthetic pose dataset file
  train         train a model on a dataset, write a checkpoint
  eval          evaluate a checkpoint, emit CSV/JSON reports
  grids         generate and export SO(3) grids
  convert       rotation representation conversion (JSON stdin -> stdout)
  ablate        run an ablation family, emit a comparison table
  check         run the quick property suite

Every command is deterministic given its seed flags; all paths are
explicit arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__, binio, estimation, grids, harmonics, harness, rotations


class InputError(Exception):
    """A --config file, config flag or stdin line that a command rejects."""


def _load_config(args) -> harness.RunConfig:
    path = getattr(args, "config", None)
    try:
        if path:
            with open(path) as fh:
                cfg = harness.RunConfig.from_json(fh.read())
        else:
            cfg = harness.RunConfig()
    # an unknown key raises TypeError; JSONDecodeError is a ValueError
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None
    fields = {f.name for f in dataclasses.fields(harness.RunConfig)}
    flags = {name: val for name, val in vars(args).items()
             if name in fields and val is not None}
    try:
        cfg = dataclasses.replace(cfg, **flags)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if getattr(args, "print_config", False):
        print(cfg.to_json())
    return cfg


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run-config file")
    p.add_argument("--print-config", action="store_true",
                   help="echo the effective config")
    p.add_argument("--bandlimit", type=int)
    p.add_argument("--dataset-kind", dest="dataset_kind",
                   choices=["spherical", "image"])
    p.add_argument("--n-train-views", dest="n_train_views", type=int)
    p.add_argument("--n-test-views", dest="n_test_views", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--loss-kind", dest="loss_kind")
    p.add_argument("--head")
    p.add_argument("--infer-level", dest="infer_level", type=int)
    p.add_argument("--input-noise", dest="input_noise", type=float)
    p.add_argument("--grad-ascent-steps", dest="grad_ascent_steps", type=int)
    p.add_argument("--data-seed", dest="data_seed", type=int)
    p.add_argument("--init-seed", dest="init_seed", type=int)
    p.add_argument("--train-seed", dest="train_seed", type=int)


def cmd_gen_dataset(args) -> int:
    cfg = _load_config(args)
    ds = harness.gen_dataset(cfg)
    harness.save_dataset(args.out, ds)
    print(f"wrote {args.out}: {ds.size} samples "
          f"({len(ds.train_idx)} train / {len(ds.test_idx)} test)")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    ds = harness.load_dataset(args.dataset)
    model, log = harness.train(cfg, ds)
    harness.save_checkpoint(args.out, model, cfg)
    final = f"; final loss {log[-1]['loss']:.6g}" if log else ""
    print(f"trained {cfg.epochs} epochs{final}")
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    model, cfg = harness.load_checkpoint(args.checkpoint)
    if args.infer_level is not None:
        cfg = dataclasses.replace(cfg, infer_level=args.infer_level)
    ds = harness.load_dataset(args.dataset)
    result = harness.evaluate(model, ds, cfg,
                              grad_ascent=args.grad_ascent or None)
    if args.csv:
        estimation.write_error_csv(args.csv, result["errors"], result["readouts"])
        print(f"wrote {args.csv}")
    if args.json_out:
        estimation.write_metrics_json(args.json_out, result["report"])
        print(f"wrote {args.json_out}")
    print(json.dumps(result["metrics"], indent=2, sort_keys=True))
    return 0


def cmd_grids(args) -> int:
    if args.count is not None and args.count < 1:
        raise InputError(f"--count must be >= 1, got {args.count}")
    g = grids.so3_grid(args.kind, args.level, args.count, args.data_seed,
                       args.allow_large)
    if args.bandlimit is not None:
        g = g.with_psi_table(args.bandlimit)
    grids.save_grid(args.out, g)
    print(f"wrote {args.out}: {g.size} rotations, "
          f"nominal {g.nominal_resolution_deg:.3f} deg")
    return 0


def cmd_convert(args) -> int:
    for number, line in enumerate(sys.stdin.read().splitlines(), 1):
        if not line.strip():
            continue
        try:
            r = rotations.rotation_from_json(line)
        except (KeyError, TypeError, ValueError) as exc:
            what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise InputError(f"stdin line {number}: {what}") from None
        print(rotations.rotation_to_json(rotations.convert(r, args.to)))
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    rows = harness.run_ablation(args.kind, cfg, verbose=True)
    table = harness.ablation_to_csv(rows)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(table)
        print(f"wrote {args.csv}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({"kind": args.kind, "config_hash": cfg.hash(),
                       "seeds": cfg.seed_set(),
                       "library_version": __version__, "rows": rows},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json_out}")
    print(table)
    return 0


def cmd_check(args) -> int:
    from .selfcheck import run_property_suite
    failures = run_property_suite(verbose=True)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="so3harmonics",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="write a synthetic dataset")
    _add_config_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("train", help="train a model")
    _add_config_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--infer-level", dest="infer_level", type=int)
    p.add_argument("--grad-ascent", dest="grad_ascent", action="store_true")
    p.add_argument("--csv", help="per-sample error CSV path")
    p.add_argument("--json", dest="json_out", help="metrics JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grids", help="generate/export SO(3) grids")
    p.add_argument("--kind", default="healpix_hopf",
                   choices=grids.GRID_KINDS)
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--count", type=int)
    p.add_argument("--bandlimit", type=int,
                   help="also precompute harmonic vectors")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--data-seed", dest="data_seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grids)

    p = sub.add_parser("convert", help="convert rotations (JSON lines stdin)")
    p.add_argument("--to", required=True,
                   choices=["euler_zyz", "quaternion", "axis_angle", "matrix"])
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("ablate", help="run an ablation family")
    _add_config_flags(p)
    p.add_argument("--kind", required=True, choices=harness.ABLATION_KINDS)
    p.add_argument("--csv")
    p.add_argument("--json", dest="json_out")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("check", help="run the quick property suite")
    p.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (binio.IncompatibleFileError, InputError, grids.ResourceLimitError,
            harmonics.IllConditionedError, harness.DivergenceError,
            OSError) as exc:  # a bad file, path or setting, as argparse does
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
