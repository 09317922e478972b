"""Command-line front end.

Commands: cov, corr, pca, interpret, scree, select, synth.  Exit codes:
0 success, 2 input, usage or allocation error (one stderr line), 3
numerical failure.  All artifacts are deterministic: rerunning a command
with the same inputs, flags, numpy and BLAS build, and BLAS thread count
writes byte-identical bytes.
"""

import argparse
import os
import stat
import sys
from contextlib import ExitStack, contextmanager, suppress

import numpy as np

from . import emit
from .covariance import correlation_matrix, covariance_matrix
from .dataset import SyntheticSpec, generate, load_csv, load_contingency
from .errors import DataError, NumericalError
from .pca import fit, interpret, scores, variable_importance

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _say(message: str) -> None:
    """Print ``message`` to stderr as one line: a path or name that holds a line break
    must not break it."""
    print(" ".join(message.splitlines()), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Usage errors are one line, ``error: <message>``, and exit 2; so are its subparsers'."""

    def error(self, message: str):
        _say(f"error: {message}")
        self.exit(EXIT_INPUT)


# each input mode's flags, as flag: the loader keyword argparse stores it under (default None)
_INPUT_FLAGS = {
    "instance CSVs": {"--weights": "weight_column", "--missing": "missing_policy",
                      "--delimiter": "delimiter"},
    "contingency tables": {"--row-name": "row_variable", "--col-name": "col_variable"},
}


# synth's flags, as flag: the SyntheticSpec field it sets, whose default gives its type and default
_SYNTH_FLAGS = {"--rows": "rows", "--vars": "n_vars", "--planted": "n_planted",
                "--classes": "classes", "--cats": "categories", "--noise": "noise",
                "--seed": "seed"}


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="input CSV path")
    p.add_argument("--contingency", action="store_true",
                   help="input is a two-way contingency table, not instance rows")
    p.add_argument("--weights", metavar="COL", dest="weight_column",
                   help="weight column name (instance mode)")
    p.add_argument("--missing", choices=("own", "drop"), dest="missing_policy",
                   help="missing-cell policy (instance mode; default own)")
    p.add_argument("--delimiter", help="field delimiter (instance mode; default ,)")
    p.add_argument("--row-name", metavar="ROW_NAME", dest="row_variable",
                   help="row variable name (contingency mode; default row)")
    p.add_argument("--col-name", metavar="COL_NAME", dest="col_variable",
                   help="column variable name (contingency mode; default col)")


def _add_output_flags(p: argparse.ArgumentParser, formats=("csv", "json")) -> None:
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _load(args):
    """Load the input with the flags given; a flag of the other input mode is an input error."""
    mode = "contingency tables" if args.contingency else "instance CSVs"
    given = {}
    for other, flags in _INPUT_FLAGS.items():
        for flag, key in flags.items():
            if getattr(args, key) is not None:
                if other != mode:
                    raise DataError(f"{flag} applies only to {other}")
                given[key] = getattr(args, key)
    return (load_contingency if args.contingency else load_csv)(args.input, **given)


def _fit(args):
    """Load the input, check --top against its variables before the fit, fit the model and
    resolve --components (default 2, or fewer)."""
    dataset = _load(args)
    if getattr(args, "top", 0) > len(dataset.variables):
        raise DataError(f"--top exceeds the {len(dataset.variables)} available variables")
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
    """``{name: write}`` for ``{name: path}``: each path, or stdout (descriptor 1)
    for None, opened as UTF-8 text with no newline translation.

    Stdout is opened first, so no path can take a closed descriptor 1, and
    every path is opened before any is truncated or written; stdout is
    never truncated.  An ``OSError`` from an open, write or close is an
    input error naming that output (``<stdout>`` for stdout), and so is an
    output that is the same file or pipe (``st_dev``, ``st_ino``) as an
    earlier one; a device (``/dev/null``, a terminal) may take several.  On
    any failure it removes the files this command created and leaves every
    path that existed before (a file, ``/dev/null``) in place, untruncated.
    """
    files, created, at = {}, [], [None]  # at[0]: the path in use, None for stdout

    def tracked(path, write):
        def write_at(text):
            at[0] = path
            write(text)
        return write_at

    try:
        with ExitStack() as stack:
            seen, truncate = set(), []
            for name, path in sorted(paths.items(), key=lambda item: item[1] is not None):
                at[0], new = path, path is not None and not os.path.lexists(path)
                fh = files[name] = stack.enter_context(open(
                    1 if path is None else path, "w", encoding="utf-8", newline="",
                    closefd=path is not None, opener=_open_untruncated))
                if new:
                    created.append(path)
                st = os.fstat(fh.fileno())
                if not stat.S_ISCHR(st.st_mode):
                    if (st.st_dev, st.st_ino) in seen:
                        raise OSError(0, "same file as another output")
                    seen.add((st.st_dev, st.st_ino))
                    if path is not None and stat.S_ISREG(st.st_mode):
                        truncate.append(fh)
            for fh in truncate:
                fh.truncate()
            yield {name: tracked(path, files[name].write) for name, path in paths.items()}
            for name, path in paths.items():
                at[0] = path
                files[name].close()
    except BaseException as exc:  # an allocation failure mid-write leaves no partial file either
        for made in created:
            with suppress(OSError):
                os.remove(made)
        if not isinstance(exc, OSError):
            raise
        name = "<stdout>" if at[0] is None else at[0]
        raise DataError(f"cannot write {name}: {exc.strerror}") from exc


def cmd_matrix(args) -> int:
    dataset = _load(args)
    names = dataset.variable_names()
    matrix = args.statistic(dataset)
    bad = [name for name, x in zip(names, matrix.diagonal()) if np.isnan(x)]
    if bad:
        _say(f"warning: zero-variance variables have undefined correlations: {', '.join(bad)}")
    with _outputs({"out": args.out}) as write:
        emit.matrix(write["out"], args.format, names, matrix)
    return EXIT_OK


def cmd_pca(args) -> int:
    if args.out is not None and os.path.basename(args.out) == "":
        raise DataError("--out prefix is empty" if args.out == "" else
                        f"--out prefix {args.out} ends in a directory separator")
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
        writers = [emit.scores_csv(write["scores"], dataset.weights, values)]
        if "svg" in write:
            writers.append(emit.scatter_svg(
                write["svg"],
                values[:, 0],
                values[:, 1],
                f"pc1 ({emit.variance_share(model, 0)})",
                f"pc2 ({emit.variance_share(model, 1)})",
            ))
        for start, stop, labels in dataset.label_chunks():
            for rows in writers:
                rows(start, stop, labels)
    return EXIT_OK


def cmd_interpret(args) -> int:
    _, model, n_comp = _fit(args)
    # only the flags given, so ``interpret`` alone holds the defaults
    given = {key: value for key, value in (("max_terms", args.max_terms), ("eps", args.eps))
             if value is not None}
    interps = [interpret(model, m, **given) for m in range(1, n_comp + 1)]
    with _outputs({"out": args.out}) as write:
        emit.interpretations(write["out"], args.format, interps, model)
    return EXIT_OK


def cmd_scree(args) -> int:
    values = _fit(args)[1].eigenvalues
    paths = {"table": args.out}
    if args.svg is not None:
        paths["svg"] = args.svg
    with _outputs(paths) as write:
        emit.scree(write["table"], args.format, values)
        if "svg" in write:
            emit.scree_svg(write["svg"], values)
    return EXIT_OK


def cmd_select(args) -> int:
    if args.top < 1:
        raise DataError("--top must be >= 1")
    _, model, n_comp = _fit(args)
    ranking = variable_importance(model, n_comp)
    with _outputs({"out": args.out}) as write:
        emit.selection(write["out"], args.format, ranking, args.top)
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SyntheticSpec(**{field: getattr(args, field) for field in _SYNTH_FLAGS.values()})
    dataset, _ = generate(spec)
    with _outputs({"out": args.out}) as write:
        emit.synthetic_csv(write["out"], dataset)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rspca",
        description="Covariance, correlation, and PCA for categorical data "
        "via regular-simplex embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cov", help="pairwise covariance matrix")
    _add_input_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_matrix, statistic=covariance_matrix)

    p = sub.add_parser("corr", help="pairwise correlation matrix")
    _add_input_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_matrix, statistic=correlation_matrix)

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
    p.add_argument("--eps", type=float, default=None,
                   help="per-block relative residual target")
    p.add_argument("--max-terms", type=int, default=None, help="atoms per variable block")
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
    spec = SyntheticSpec()
    for flag, field in _SYNTH_FLAGS.items():
        default = getattr(spec, field)
        p.add_argument(flag, dest=field, type=type(default), default=default,
                       metavar=flag[2:].upper())
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        _say(f"error: {exc}")
        return EXIT_INPUT
    except NumericalError as exc:
        _say(f"numerical failure: {exc}")
        return EXIT_NUMERICAL
    except MemoryError as exc:
        _say(f"error: out of memory{f': {exc}' if str(exc) else ''}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
