"""Command-line interface.

Subcommands: ``tree`` (field to merge tree), ``dist`` (pairwise distance),
``matrix`` (distance matrix with optional clustering order and heatmap),
``track`` (feature tracks over a time series), ``gen`` (synthetic data).

Exit codes: 0 on success, 1 on usage errors, 2 on data errors (unparseable
or invalid inputs, I/O failures).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import sys
from pathlib import Path

from .errors import MTDistError
from .fields import compute_merge_tree, parse_scalar_field, simplify, write_scalar_field
from .generators import (
    four_peak_spec,
    generate_ensemble,
    generate_periodic_series,
    outlier_spec,
)
from .matrix import (
    DISTANCE_NAMES,
    DistanceOptions,
    branch_mapping,
    compute_matrix,
    pairwise_distance,
    single_linkage_order,
    write_csv,
    write_pgm,
)
from .metrics import METRIC_NAMES, MODE_NAMES
from .tracking import build_tracks
from .trees import _content_rows, parse_merge_tree, read_text, write_merge_tree


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _natural_key(name: str):
    return [int(tok) if tok.isdigit() else tok for tok in re.split(r"(\d+)", name)]


def _collect_inputs(paths):
    """Expand directories into naturally sorted file lists; a missing path
    raises ``FileNotFoundError``."""
    out = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            members = [q for q in path.iterdir() if q.suffix in (".sf2", ".mt")]
            out.extend(sorted(members, key=lambda q: _natural_key(q.name)))
        elif path.exists():
            out.append(path)
        else:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
    return out


def _load_tree(path, args):
    """Read an MT file, or build the tree of an SF2 field by ``--direction``
    and ``--connectivity``; the first line the parsers read, past blanks and
    comments, tells which. Either is then simplified by ``--simplify``."""
    text = read_text(path)
    rows = _content_rows(text)
    if rows and rows[0][1].startswith("SF2"):
        field = parse_scalar_field(text, str(path), connectivity=args.connectivity)
        tree = compute_merge_tree(field, direction=args.direction)
    else:
        tree = parse_merge_tree(text, str(path))
    return simplify(tree, args.simplify) if args.simplify > 0 else tree


def _add_tree_flags(p):
    p.add_argument("--direction", choices=("max", "min"), default="max")
    p.add_argument("--connectivity", type=int, choices=(4, 8), default=8)
    p.add_argument("--simplify", type=float, default=0.0, metavar="TAU")


def _add_distance_flags(p):
    p.add_argument("--distance", choices=DISTANCE_NAMES, default=DistanceOptions.distance)
    p.add_argument("--metric", choices=METRIC_NAMES, default=DistanceOptions.metric)
    p.add_argument("--mode", choices=MODE_NAMES, default=DistanceOptions.mode)


def build_parser():
    parser = _Parser(prog="mtdist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("tree", help="build a merge tree from a scalar field, or simplify one")
    p.add_argument("input", help="input SF2 or MT file")
    p.add_argument("--out", required=True, help="output MT file")
    _add_tree_flags(p)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("dist", help="distance between two trees or fields")
    p.add_argument("a")
    p.add_argument("b")
    _add_distance_flags(p)
    _add_tree_flags(p)
    p.add_argument("--mapping", help="write the optimal branch mapping as JSON")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("matrix", help="pairwise distance matrix")
    p.add_argument("inputs", nargs="+", help="SF2/MT files or a directory")
    p.add_argument("--out", required=True, help="output CSV file")
    _add_distance_flags(p)
    _add_tree_flags(p)
    p.add_argument("--order", choices=("input", "cluster"), default="input")
    p.add_argument("--heatmap", help="write a PGM (P5) heatmap to this path")
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("track", help="feature tracks over a time series")
    p.add_argument("inputs", nargs="+", help="SF2/MT files in time order, or a directory")
    p.add_argument("--out", required=True, help="output JSON file")
    _add_distance_flags(p)
    _add_tree_flags(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("gen", help="generate synthetic scalar fields")
    kinds = p.add_subparsers(dest="kind", required=True, parser_class=_Parser)
    for kind, (_, keys) in _GEN_KINDS.items():
        k = kinds.add_parser(kind)
        k.add_argument("--out-dir", required=True)
        k.add_argument("--config", help="key=value file overriding generator defaults")
        for key, type_ in keys.items():
            k.add_argument("--" + key.replace("_", "-"), type=type_, default=argparse.SUPPRESS)
        k.set_defaults(func=cmd_gen)

    return parser


def cmd_tree(args):
    write_merge_tree(args.out, _load_tree(args.input, args))
    return 0


def cmd_dist(args):
    t1 = _load_tree(args.a, args)
    t2 = _load_tree(args.b, args)
    opts = DistanceOptions(distance=args.distance, metric=args.metric, mode=args.mode)
    if args.mapping:
        d, mapping = branch_mapping(t1, t2, opts)
        with open(args.mapping, "w", encoding="utf-8") as fh:
            json.dump(mapping.to_json_dict(), fh, indent=2)
            fh.write("\n")
    else:
        d = pairwise_distance(t1, t2, opts)
    print(f"{d:.9f}")
    return 0


def cmd_matrix(args):
    files = _collect_inputs(args.inputs)
    trees = [_load_tree(p, args) for p in files]
    labels = tuple(p.stem for p in files)
    opts = DistanceOptions(distance=args.distance, metric=args.metric, mode=args.mode)
    matrix = compute_matrix(trees, labels, opts, jobs=args.jobs)
    if args.order == "cluster":
        matrix = matrix.reordered(single_linkage_order(matrix.values))
    write_csv(args.out, matrix)
    if args.heatmap:
        write_pgm(args.heatmap, matrix.values)
    return 0


def cmd_track(args):
    files = _collect_inputs(args.inputs)
    trees = [_load_tree(p, args) for p in files]
    opts = DistanceOptions(distance=args.distance, metric=args.metric, mode=args.mode)
    result = build_tracks(trees, opts)
    result["labels"] = [p.stem for p in files]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


def _read_config(path):
    """``key -> (line number, raw value)`` of a ``key=value`` file."""
    out = {}
    for no, line in _content_rows(read_text(path)):
        if "=" not in line:
            raise MTDistError(f"{path}:{no}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = no, value.strip()
    return out


# the CLI's own defaults; every other key left unset takes the generator's
_GEN_DEFAULTS = {"seed": 1, "length": 225, "period": 75}
# gen kind -> (generator, {key: type}): the keys it takes, each a flag of the
# kind and a --config key
_GEN_KINDS = {
    "peaks": (
        lambda **kw: generate_ensemble(four_peak_spec(**kw)),
        {"members": int, "seed": int, "rows": int, "cols": int, "noise": float},
    ),
    "outlier": (
        lambda **kw: generate_ensemble(outlier_spec(**kw)),
        {"members": int, "outlier_index": int, "seed": int, "rows": int, "cols": int, "noise": float},
    ),
    "periodic": (
        generate_periodic_series,
        {"length": int, "period": int, "seed": int, "rows": int, "cols": int,
         "variation": float, "bumps": int, "drift": float},
    ),
}


def _gen_params(args, keys):
    """The kind's ``keys`` set by the CLI's defaults, ``--config`` and the
    flags given (``args`` holds no other), each overriding the ones before."""
    params = {key: value for key, value in _GEN_DEFAULTS.items() if key in keys}
    if args.config:
        for key, (no, raw) in _read_config(args.config).items():
            if key not in keys:
                raise MTDistError(
                    f"{args.config}:{no}: gen {args.kind} takes no key {key!r}, expected one of {tuple(keys)}"
                )
            try:
                params[key] = keys[key](raw)
            except ValueError:
                raise MTDistError(f"{args.config}:{no}: {key} must be {keys[key].__name__}, got {raw!r}") from None
    params.update((key, value) for key, value in vars(args).items() if key in keys)
    return params


def cmd_gen(args):
    generate, keys = _GEN_KINDS[args.kind]
    params = _gen_params(args, keys)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fields = generate(**params)
    for k, field in enumerate(fields):
        write_scalar_field(out_dir / f"member_{k}.sf2", field)
    print(f"wrote {len(fields)} fields to {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # a negative or non-finite threshold would silently mean "no simplification"
        tau = getattr(args, "simplify", 0.0)
        if not (math.isfinite(tau) and tau >= 0):
            raise MTDistError(f"--simplify must be a finite threshold >= 0, got {tau!r}")
        return args.func(args) or 0
    except (MTDistError, OSError) as exc:
        print(f"mtdist: error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
