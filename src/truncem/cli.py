"""Command-line driver: trace | scaling | typeone | fit | infer.

Settings come from an optional JSON config file plus flag overrides;
the fully resolved config is echoed into every output file.
"""

import argparse
import json
import sys

from .datagen import MODEL_TAGS
from .harness import (
    ExperimentConfig,
    run_fit,
    run_infer,
    run_scaling,
    run_trace,
    run_typeone,
    write_csv,
    write_json,
)


def _add_common(parser):
    parser.add_argument("--model", choices=MODEL_TAGS)
    parser.add_argument("--d", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--s-star", dest="s_star", type=int)
    parser.add_argument("--s-hat", dest="s_hat", type=int)
    parser.add_argument("--sigma", type=float)
    parser.add_argument("--p-m", dest="p_missing", type=float)
    parser.add_argument("--m-step", dest="m_step", choices=("exact", "gradient"))
    parser.add_argument("--eta", type=float)
    parser.add_argument("--T", dest="n_iter", type=int)
    parser.add_argument("--lambda", dest="lam", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--alpha-index", dest="alpha_index", type=int)
    parser.add_argument("--replicates", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--rel-err", dest="rel_err", type=float)
    parser.add_argument("--resample", action="store_true", default=None)
    parser.add_argument("--out", required=False)
    parser.add_argument("--config", help="JSON config file; flags override it")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="truncem",
        description="Truncated high-dimensional EM experiments and inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("trace", "per-iteration optimization and estimation errors (CSV)"),
        ("scaling", "estimation error over an (s*, n) grid (CSV)"),
        ("typeone", "Monte-Carlo type-I errors of both tests (CSV + JSON)"),
        ("fit", "single fit (JSON)"),
        ("infer", "single fit plus score/Wald tests (JSON)"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        if name == "scaling":
            p.add_argument("--s-star-grid", dest="s_star_grid",
                           type=int, nargs="+")
            p.add_argument("--n-grid", dest="n_grid", type=int, nargs="+")
            p.add_argument("--scaling-replicates", dest="scaling_replicates",
                           type=int)
            p.add_argument("--scaling-d", dest="scaling_d", type=int)
        if name in ("fit", "infer"):
            p.add_argument("--data", dest="data_csv",
                           help="external dataset CSV (see datagen docs)")
    return parser


def _unique_keys(pairs):
    keys = [key for key, _ in pairs]
    if repeated := sorted({key for key in keys if keys.count(key) > 1}):
        raise SystemExit(f"repeated config keys: {repeated}")
    return dict(pairs)


def config_from_args(args):
    settings = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                settings = json.load(fh, object_pairs_hook=_unique_keys)
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise SystemExit(f"cannot read config file {args.config}: {exc}") from None
    if not isinstance(settings, dict):
        raise SystemExit(f"config file must hold a JSON object; got {type(settings).__name__}")
    valid = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(settings) - valid
    if unknown:
        raise SystemExit(f"unknown config keys: {sorted(unknown)}")
    for key in valid:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    for key in ("beta_values", "s_star_grid", "n_grid"):
        if isinstance(settings.get(key), list):  # resolve rejects other values
            settings[key] = tuple(settings[key])
    return ExperimentConfig(**settings)


COMMANDS = {
    "trace": run_trace,
    "scaling": run_scaling,
    "typeone": run_typeone,
    "fit": run_fit,
    "infer": run_infer,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    result = COMMANDS[args.command](cfg)
    if args.command == "typeone":
        rows, summary = result
        if cfg.out:
            write_csv(rows, cfg.out + ".csv")
            write_json(summary, cfg.out + ".json")
            print(f"wrote {cfg.out}.csv and {cfg.out}.json")
        del summary["config"]
        write_json(summary)
    elif args.command in ("trace", "scaling"):
        write_csv(result, cfg.out)
        if cfg.out:
            print(f"wrote {cfg.out} ({len(result)} rows)")
    else:
        write_json(result, cfg.out)
        if cfg.out:
            print(f"wrote {cfg.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
