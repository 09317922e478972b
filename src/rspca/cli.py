"""Command-line front end.

Commands: cov, corr, pca, interpret, scree, select, synth.  Exit codes:
0 success, 2 input or usage error, 3 numerical failure.  All artifacts are
deterministic: rerunning a command with the same inputs and flags writes
byte-identical bytes.
"""

import argparse
import sys

import numpy as np

from . import emit, plots, synth
from .covariance import correlation_matrix, covariance_matrix
from .dataset import load_csv, load_contingency
from .errors import DataError, NumericalError, RspcaError
from .pca import fit, interpret, scores, scree, variable_importance

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="input CSV path")
    p.add_argument("--contingency", action="store_true",
                   help="input is a two-way contingency table, not instance rows")
    p.add_argument("--weights", metavar="COL", default=None,
                   help="weight column name (instance mode)")
    p.add_argument("--missing", choices=("own", "drop"), default="own",
                   help="missing-cell policy (instance mode)")
    p.add_argument("--delimiter", default=",", help="field delimiter (instance mode)")
    p.add_argument("--row-name", default="row",
                   help="row variable name (contingency mode)")
    p.add_argument("--col-name", default="col",
                   help="column variable name (contingency mode)")


def _add_output_flags(p: argparse.ArgumentParser, formats=("csv", "json")) -> None:
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _load(args):
    if args.contingency:
        return load_contingency(args.input, args.row_name, args.col_name)
    return load_csv(args.input, weight_column=args.weights,
                    missing_policy=args.missing, delimiter=args.delimiter)


def _fit(args):
    """Load the input, fit the model and resolve --components (default 2, or fewer)."""
    dataset = _load(args)
    model = fit(dataset)
    n_comp = getattr(args, "components", None)
    if n_comp is None:
        n_comp = min(2, model.n_components)
    if not 1 <= n_comp <= model.n_components:
        raise DataError(f"--components must be in [1, {model.n_components}]")
    return dataset, model, n_comp


_SLICE = 1 << 20  # characters encoded at a time, so no artifact exists twice as str and bytes


def _write(text: str, path: str | None) -> None:
    slices = (text[start:start + _SLICE] for start in range(0, len(text), _SLICE))
    if path is None:
        sys.stdout.writelines(slices)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(slices)


def cmd_cov(args) -> int:
    dataset = _load(args)
    names = dataset.variable_names()
    cov = covariance_matrix(dataset)
    text = emit.matrix_csv(names, cov) if args.format == "csv" else emit.matrix_json(names, cov)
    _write(text, args.out)
    return EXIT_OK


def cmd_corr(args) -> int:
    dataset = _load(args)
    names = dataset.variable_names()
    rho, defined = correlation_matrix(dataset)
    if not defined.all():
        bad = [names[i] for i in range(len(names)) if not defined[i, i]]
        print(f"warning: zero-variance variables have undefined correlations: "
              f"{', '.join(bad)}", file=sys.stderr)
    to_text = emit.matrix_csv if args.format == "csv" else emit.matrix_json
    _write(to_text(names, rho, defined), args.out)
    return EXIT_OK


def cmd_pca(args) -> int:
    dataset, model, n_comp = _fit(args)
    if args.svg is not None and n_comp < 2:
        raise DataError("KL-plot needs at least 2 components")
    table = scores(model, dataset, n_comp)
    if args.out is not None:
        _write(emit.model_json(model), args.out + ".model.json")
    _write(emit.scores_csv(table), None if args.out is None else args.out + ".scores.csv")
    if args.svg is not None:
        total = float(model.eigenvalues.sum())
        share = [100.0 * float(model.eigenvalues[m]) / total if total > 0 else 0.0 for m in (0, 1)]
        svg = plots.scatter_svg(
            table.values[:, 0],
            table.values[:, 1],
            table.labels,
            f"pc1 ({share[0]:.1f}% of variance)",
            f"pc2 ({share[1]:.1f}% of variance)",
            "KL-plot",
        )
        _write(svg, args.svg)
    return EXIT_OK


def cmd_interpret(args) -> int:
    _, model, n_comp = _fit(args)
    interps = [
        interpret(model, m, max_terms=args.max_terms, eps=args.eps)
        for m in range(1, n_comp + 1)
    ]
    if args.format == "json":
        text = emit.to_json([emit.interpretation_json_obj(i, model) for i in interps])
    else:
        total = float(model.eigenvalues.sum())
        text = "".join(emit.interpretation_text(i, model, total) for i in interps)
    _write(text, args.out)
    return EXIT_OK


def cmd_scree(args) -> int:
    _, model, _ = _fit(args)
    pairs = scree(model)
    if args.format == "json":
        text = emit.to_json([{"mode": m, "eigenvalue": float(ev)} for m, ev in pairs])
    else:
        lines = ["mode,eigenvalue"] + [f"{m},{emit.fmt(ev)}" for m, ev in pairs]
        text = "\n".join(lines) + "\n"
    _write(text, args.out)
    if args.svg is not None:
        _write(plots.scree_svg(model.eigenvalues), args.svg)
    return EXIT_OK


def cmd_select(args) -> int:
    if args.top < 1:
        raise DataError("--top must be >= 1")
    dataset, model, n_comp = _fit(args)
    if args.top > len(dataset.variables):
        raise DataError(f"--top exceeds the {len(dataset.variables)} available variables")
    ranking = variable_importance(model, n_comp)
    selected = [name for name, _ in ranking[: args.top]]
    if args.format == "json":
        text = emit.to_json(
            {
                "ranking": [{"variable": n, "importance": float(v)} for n, v in ranking],
                "selected": selected,
            }
        )
    else:
        lines = ["rank,variable,importance,selected"]
        names = emit.csv_fields([name for name, _ in ranking])
        for rank, (name, (_, val)) in enumerate(zip(names, ranking), start=1):
            lines.append(f"{rank},{name},{emit.fmt(val)},{int(rank <= args.top)}")
        text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = synth.SyntheticSpec(
        rows=args.rows,
        n_vars=args.vars,
        n_planted=args.planted,
        classes=args.classes,
        categories=args.cats,
        noise=args.noise,
        seed=args.seed,
    )
    dataset, _ = synth.generate(spec)
    _write(synth.to_csv_text(dataset), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rspca",
        description="Covariance, correlation, and PCA for categorical data "
        "via regular-simplex embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cov", help="pairwise covariance matrix")
    _add_input_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_cov)

    p = sub.add_parser("corr", help="pairwise correlation matrix")
    _add_input_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("pca", help="fit the model, emit scores (and model JSON with --out)")
    _add_input_flags(p)
    p.add_argument("--components", type=int, default=None, help="score columns (default 2)")
    p.add_argument("--out", default=None,
                   help="output prefix: writes PREFIX.model.json and PREFIX.scores.csv")
    p.add_argument("--svg", default=None, help="write a pc1/pc2 scatter SVG here")
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("interpret", help="expand components over edge/center atoms")
    _add_input_flags(p)
    _add_output_flags(p, formats=("text", "json"))
    p.add_argument("--components", type=int, default=None,
                   help="how many leading components to report (default 2)")
    p.add_argument("--eps", type=float, default=0.05,
                   help="per-block relative residual target")
    p.add_argument("--max-terms", type=int, default=4, help="atoms per variable block")
    p.set_defaults(func=cmd_interpret)

    p = sub.add_parser("scree", help="eigenvalue vs mode number")
    _add_input_flags(p)
    _add_output_flags(p)
    p.add_argument("--svg", default=None, help="write a scree plot SVG here")
    p.set_defaults(func=cmd_scree)

    p = sub.add_parser("select", help="rank variables by top-component importance")
    _add_input_flags(p)
    _add_output_flags(p)
    p.add_argument("--top", type=int, required=True, help="how many variables to select")
    p.add_argument("--components", type=int, default=None,
                   help="components feeding the importance score (default 2)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("synth", help="generate a planted-structure synthetic dataset")
    p.add_argument("--rows", type=int, default=400)
    p.add_argument("--vars", type=int, default=10)
    p.add_argument("--planted", type=int, default=3)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--cats", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RspcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
