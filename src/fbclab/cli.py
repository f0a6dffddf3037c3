"""Command-line front end.

One subcommand per experiment kind. Parameters come from an optional JSON
config file and can be overridden by flags of the same names; results land in
--out (or $FBCLAB_OUT, or ./results).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, NumericalFailure
from .experiments import (
    SCHEMAS,
    ExperimentConfig,
    default_out_dir,
    run_experiment,
)


def _json_flag(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"invalid JSON: {exc}") from exc


# A list or dict flag takes inline JSON; a bool flag is --key / --no-key.
_FLAG_TYPES = {"number": float, "int": int, "string": str, "list": _json_flag, "dict": _json_flag}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbclab",
        description="Feedback-channel-coding laboratory experiments",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, schema in SCHEMAS.items():
        sp = sub.add_parser(kind, help=f"run the {kind} experiment")
        sp.add_argument("--config", help="JSON file with a params object")
        sp.add_argument("--seed", type=int, default=None, help="RNG seed")
        sp.add_argument("--out", default=None, help="output directory")
        for key, spec in schema.items():
            flag = "--" + key.replace("_", "-")
            kwargs = dict(default=argparse.SUPPRESS, help=spec.help, dest=key)
            if spec.type == "bool":
                sp.add_argument(flag, action=argparse.BooleanOptionalAction, **kwargs)
            else:
                sp.add_argument(flag, type=_FLAG_TYPES[spec.type], **kwargs)
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    return doc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    kind = args.kind
    schema = SCHEMAS[kind]

    try:
        params: dict = {}
        seed = args.seed
        out_dir = args.out
        if args.config:
            doc = _load_config_file(args.config)
            file_kind = doc.get("kind")
            if file_kind is not None and file_kind != kind:
                raise ConfigError(
                    f"config at {args.config} is for kind {file_kind!r}, not {kind!r}"
                )
            file_params = doc.get("params", {})
            if not isinstance(file_params, dict):
                raise ConfigError(f"config at {args.config}: params must be an object")
            params.update(file_params)
            if seed is None:
                seed = doc.get("seed")
            file_out = doc.get("out")
            if file_out is not None and not isinstance(file_out, str):
                raise ConfigError(
                    f"config at {args.config}: out must be a string, got {type(file_out).__name__}"
                )
            if out_dir is None:
                out_dir = file_out
        for key in schema:
            if hasattr(args, key):
                params[key] = getattr(args, key)

        manifest = run_experiment(
            ExperimentConfig(kind, params, seed, out_dir or default_out_dir())
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    out = out_dir or default_out_dir()
    print(f"{kind}: wrote {', '.join(manifest['outputs'])} to {out}")
    if kind == "gradcheck":
        with open(f"{out}/gradcheck.json") as fh:
            payload = json.load(fh)
        print(
            f"max relative error {payload['max_rel_error']:.3e} "
            f"(tolerance {payload['tolerance']:g})"
        )
        if not payload["passed"]:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
