"""Command-line front end.

Commands: cov, corr, pca, interpret, scree, select, synth.  Exit codes:
0 success, 2 input or usage error, 3 numerical failure.  All artifacts are
deterministic: rerunning a command with the same inputs and flags writes
byte-identical bytes.
"""

import argparse
import os
import stat
import sys
from contextlib import ExitStack, contextmanager, suppress

from . import emit, plots, synth
from .covariance import correlation_matrix, covariance_matrix
from .dataset import load_csv, load_contingency
from .errors import DataError, NumericalError, RspcaError
from .pca import fit, interpret, scores, variable_importance

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


def _open_untruncated(path, flags):
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextmanager
def _outputs(paths: dict):
    """``{name: write}`` for ``{name: path}``: each path opened as UTF-8 text with
    no newline translation, or stdout for None.

    Every path is opened before any is truncated or written.  An ``OSError``
    from an open, write or close, or from the final flush of stdout, is an
    input error naming that output (``<stdout>`` for stdout).  It removes
    the files this command created, leaves every path that existed before
    (a file, ``/dev/null``) in place and, when stdout failed, points stdout
    at ``os.devnull`` so that the interpreter's exit flush stays quiet.
    """
    files, created, at = {}, [], [None]  # at[0]: the path in use, None for stdout

    def tracked(path, write):
        def write_at(text):
            at[0] = path
            write(text)
        return write_at

    try:
        with ExitStack() as stack:
            for name, path in paths.items():
                if path is not None:
                    at[0], new = path, not os.path.lexists(path)
                    files[name] = stack.enter_context(
                        open(path, "w", encoding="utf-8", newline="", opener=_open_untruncated))
                    if new:
                        created.append(path)
            for fh in files.values():
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()
            yield {name: tracked(path, files[name].write if name in files else sys.stdout.write)
                   for name, path in paths.items()}
            for name, fh in files.items():
                at[0] = paths[name]
                fh.close()
        at[0] = None
        sys.stdout.flush()
    except OSError as exc:
        for made in created:
            with suppress(OSError):
                os.remove(made)
        if at[0] is None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise DataError(f"cannot write {at[0] or '<stdout>'}: {exc.strerror}") from exc


@contextmanager
def _output(path: str | None):
    """The ``write`` of one output, as ``_outputs`` opens it."""
    with _outputs({"": path}) as writes:
        yield writes[""]


def cmd_cov(args) -> int:
    dataset = _load(args)
    names = dataset.variable_names()
    cov = covariance_matrix(dataset)
    write_matrix = emit.matrix_csv if args.format == "csv" else emit.matrix_json
    with _output(args.out) as write:
        write_matrix(write, names, cov)
    return EXIT_OK


def cmd_corr(args) -> int:
    dataset = _load(args)
    names = dataset.variable_names()
    rho, defined = correlation_matrix(dataset)
    if not defined.all():
        bad = [names[i] for i in range(len(names)) if not defined[i, i]]
        print(f"warning: zero-variance variables have undefined correlations: "
              f"{', '.join(bad)}", file=sys.stderr)
    write_matrix = emit.matrix_csv if args.format == "csv" else emit.matrix_json
    with _output(args.out) as write:
        write_matrix(write, names, rho, defined)
    return EXIT_OK


def cmd_pca(args) -> int:
    dataset, model, n_comp = _fit(args)
    if args.svg is not None and n_comp < 2:
        raise DataError("KL-plot needs at least 2 components")
    values = scores(model, dataset, n_comp)
    paths = {"scores": None}
    if args.out is not None:
        paths = {"model": args.out + ".model.json", "scores": args.out + ".scores.csv"}
    if args.svg is not None:
        paths["svg"] = args.svg
    with _outputs(paths) as write:
        if "model" in write:
            emit.model_json(write["model"], model)
        emit.scores_csv(write["scores"], dataset.weights, dataset.instance_labels, values)
        if "svg" in write:
            plots.scatter_svg(
                write["svg"],
                values[:, 0],
                values[:, 1],
                dataset.instance_labels,
                f"pc1 ({emit.variance_share(model, 0)})",
                f"pc2 ({emit.variance_share(model, 1)})",
                "KL-plot",
            )
    return EXIT_OK


def cmd_interpret(args) -> int:
    _, model, n_comp = _fit(args)
    interps = [
        interpret(model, m, max_terms=args.max_terms, eps=args.eps)
        for m in range(1, n_comp + 1)
    ]
    with _output(args.out) as write:
        if args.format == "json":
            emit.to_json(write, [emit.interpretation_json_obj(i, model) for i in interps])
        else:
            for i in interps:
                write(emit.interpretation_text(i, model))
    return EXIT_OK


def cmd_scree(args) -> int:
    values = _fit(args)[1].eigenvalues
    paths = {"table": args.out}
    if args.svg is not None:
        paths["svg"] = args.svg
    with _outputs(paths) as write:
        if args.format == "json":
            emit.to_json(write["table"], [{"mode": m, "eigenvalue": ev}
                                          for m, ev in enumerate(values, 1)])
        else:
            emit.table_csv(write["table"], ["mode", "eigenvalue"],
                           [map(str, range(1, len(values) + 1)), emit.fmt_all(values)])
        if "svg" in write:
            plots.scree_svg(write["svg"], values)
    return EXIT_OK


def cmd_select(args) -> int:
    if args.top < 1:
        raise DataError("--top must be >= 1")
    dataset, model, n_comp = _fit(args)
    if args.top > len(dataset.variables):
        raise DataError(f"--top exceeds the {len(dataset.variables)} available variables")
    ranking = variable_importance(model, n_comp)
    names, importance = zip(*ranking)
    with _output(args.out) as write:
        if args.format == "json":
            emit.to_json(
                write,
                {
                    "ranking": [{"variable": n, "importance": v} for n, v in ranking],
                    "selected": names[: args.top],
                },
            )
        else:
            ranks = range(1, len(ranking) + 1)
            emit.table_csv(
                write,
                ["rank", "variable", "importance", "selected"],
                [map(str, ranks), emit.csv_fields(list(names)), emit.fmt_all(importance),
                 ["1" if rank <= args.top else "0" for rank in ranks]],
            )
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
    with _output(args.out) as write:
        synth.write_csv(write, dataset)
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
