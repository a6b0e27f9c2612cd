"""Command-line interface.

Subcommands: ``tree`` (field to merge tree), ``dist`` (pairwise distance),
``matrix`` (distance matrix with optional clustering order and heatmap),
``track`` (feature tracks over a time series), ``gen`` (synthetic data).

Exit codes: 0 on success, 1 on usage errors, 2 on data errors (unparseable
or invalid inputs, I/O failures).
"""

from __future__ import annotations

import argparse
import codecs
import json
import re
import sys
from pathlib import Path

from .errors import MTDistError
from .fields import compute_merge_tree, read_scalar_field, simplify, write_scalar_field
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
from .trees import read_merge_tree, read_text, write_merge_tree


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _natural_key(name: str):
    return [int(tok) if tok.isdigit() else tok for tok in re.split(r"(\d+)", name)]


def _collect_inputs(paths):
    """Expand directories into naturally sorted file lists."""
    out = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            members = [q for q in path.iterdir() if q.suffix in (".sf2", ".mt")]
            out.extend(sorted(members, key=lambda q: _natural_key(q.name)))
        else:
            out.append(path)
    return out


def _load_tree(path, args):
    """Read an MT file, or build a tree from an SF2 field using the flags."""
    with open(path, "rb") as fh:
        head = fh.read(6)
    if head.removeprefix(codecs.BOM_UTF8).startswith(b"SF2"):
        field = read_scalar_field(path, connectivity=args.connectivity)
        tree = compute_merge_tree(field, direction=args.direction)
        if args.simplify > 0:
            tree = simplify(tree, args.simplify)
        return tree
    return read_merge_tree(path)


def _add_tree_flags(p):
    p.add_argument("--direction", choices=("max", "min"), default="max")
    p.add_argument("--connectivity", type=int, choices=(4, 8), default=8)
    p.add_argument("--simplify", type=float, default=0.0, metavar="TAU")


def _add_distance_flags(p):
    p.add_argument("--distance", choices=DISTANCE_NAMES, default="branch")
    p.add_argument("--metric", choices=METRIC_NAMES, default="birth-persistence")
    p.add_argument("--mode", choices=MODE_NAMES, default="sum")


def build_parser():
    parser = _Parser(prog="mtdist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("tree", help="build a merge tree from a scalar field")
    p.add_argument("field", help="input SF2 file")
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
    p.add_argument("kind", choices=("peaks", "outlier", "periodic"))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="key=value file overriding generator defaults")
    for key, (kind, _) in _GEN_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind)
    p.set_defaults(func=cmd_gen)

    return parser


def cmd_tree(args):
    field = read_scalar_field(args.field, connectivity=args.connectivity)
    tree = compute_merge_tree(field, direction=args.direction)
    if args.simplify > 0:
        tree = simplify(tree, args.simplify)
    write_merge_tree(args.out, tree)
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
    if len(files) < 2:
        raise MTDistError("matrix needs at least two members")
    trees = []
    for path in files:
        try:
            trees.append(_load_tree(path, args))
        except MTDistError as exc:
            raise MTDistError(f"member {path}: {exc}") from exc
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
    if len(files) < 2:
        raise MTDistError("tracking needs at least two time steps")
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
    for no, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MTDistError(f"{path}:{no}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = no, value.strip()
    return out


# generator keys, each a ``gen`` flag and a ``--config`` key: (type, default)
_GEN_KEYS = {
    "members": (int, 20),
    "outlier_index": (int, 7),
    "seed": (int, 1),
    "rows": (int, None),
    "cols": (int, None),
    "noise": (float, 0.0),
    "length": (int, 225),
    "period": (int, 75),
    "variation": (float, 0.001),
    "bumps": (int, 3),
    "drift": (float, None),
}


def _gen_params(args):
    params = {key: default for key, (_, default) in _GEN_KEYS.items()}
    if args.config:
        for key, (no, raw) in _read_config(args.config).items():
            if key not in _GEN_KEYS:
                raise MTDistError(f"{args.config}:{no}: unknown generator key {key!r}")
            kind = _GEN_KEYS[key][0]
            try:
                params[key] = kind(raw)
            except ValueError:
                raise MTDistError(f"{args.config}:{no}: {key} must be {kind.__name__}, got {raw!r}") from None
    for key in _GEN_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            params[key] = flag
    return params


def cmd_gen(args):
    params = _gen_params(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = {}
    if params["rows"] is not None:
        grid["rows"] = params["rows"]
    if params["cols"] is not None:
        grid["cols"] = params["cols"]
    if args.kind == "peaks":
        spec = four_peak_spec(
            members=params["members"], seed=params["seed"], noise=params["noise"], **grid
        )
        fields = generate_ensemble(spec)
    elif args.kind == "outlier":
        spec = outlier_spec(
            members=params["members"],
            outlier_index=params["outlier_index"],
            seed=params["seed"],
            noise=params["noise"],
            **grid,
        )
        fields = generate_ensemble(spec)
    else:
        fields = generate_periodic_series(
            length=params["length"],
            period=params["period"],
            seed=params["seed"],
            variation=params["variation"],
            bumps=params["bumps"],
            drift=params["drift"],
            **grid,
        )
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
        return args.func(args) or 0
    except (MTDistError, OSError) as exc:
        print(f"mtdist: error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
