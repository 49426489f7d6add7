"""Command-line interface.

Four subcommands: `estimate` writes a JSON report of per-covariate effect
multisets, `score` writes a CSV of bootstrap causal scores, `tune` writes a
CSV of per-alpha BIC scores, and `simulate` writes a CSV of replicated
synthetic-data results.  Each subcommand accepts only the flags it reads
(see `_COMMAND_FLAGS`); any other flag is a usage error.

Every command is deterministic given its input files, flags, and seed
(`simulate` additionally needs --timing off, since wall-clock times are
not reproducible).  Output files are written atomically: nothing appears
at the target path until the command has fully succeeded.

Exit codes: 0 success, 2 configuration or usage error, 3 input error,
4 numerical error, 5 resource cap exceeded, 1 any other package error.
The defaults of --alpha, --method, --bootstrap, --seed, --max-enum and
--max-sib can be overridden with environment variables named
CAUSALSPAN_<FLAG> (dashes as underscores), for example
CAUSALSPAN_ALPHA=0.05 or CAUSALSPAN_MAX_ENUM=15; a variable applies only
to the commands that have its flag, and a flag given on the command line
wins.  No other flag reads the environment.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import warnings

import numpy as np

from . import effects, sim
from .errors import (
    CausalSpanError,
    ConfigError,
    InputError,
    NumericalRankError,
    ResourceCapError,
)
from .gauss import CITestConfig, Dataset
from .graphs import DEFAULT_MAX_COMPONENT_EDGES, DEFAULT_MAX_DAGS
from .pc import bic_select_alpha, pc_cpdag, repair_cpdag

ENV_PREFIX = "CAUSALSPAN_"

EXIT_OK = 0
# Exit code of each error class, subclasses included; any other package
# error exits 1.
_EXIT_CODES = {
    ConfigError: 2,
    InputError: 3,
    NumericalRankError: 4,
    ResourceCapError: 5,
}


def _env_default(flag: str, fallback):
    return os.environ.get(ENV_PREFIX + flag.upper().replace("-", "_"), fallback)


# Every flag of every subcommand; _COMMAND_FLAGS picks each command's own.
# Both modification flags collect into one `mods` list.
_FLAGS = {
    "input": dict(required=True, help="CSV file with a header row"),
    "response": dict(required=True, help="name of the response column"),
    "no-standardize": dict(action="store_true",
                           help="keep covariates on their original scale"),
    "alpha": dict(default=0.01,
                  help="test level for conditional independence (default 0.01)"),
    "alphas": dict(default="0.001,0.005,0.01,0.05,0.1",
                   help="comma-separated candidate levels"),
    "method": dict(default="local", choices=["local", "global"],
                   help="effect computation route"),
    "mod-zero-path": dict(action="append_const", dest="mods", const=effects.MOD_ZERO_PATH,
                          help="report zero when no directed path can reach the response"),
    "mod-prune-y": dict(action="append_const", dest="mods", const=effects.MOD_PRUNE_Y,
                        help="ignore parents/siblings with no skeleton path to the response"),
    "bootstrap": dict(default=10, help="number of bootstrap replicates"),
    "seed": dict(default=0, help="random seed"),
    "max-enum": dict(default=DEFAULT_MAX_COMPONENT_EDGES,
                     help="cap on undirected edges per component before enumeration refuses"),
    "max-sib": dict(default=effects.DEFAULT_MAX_SIBLINGS,
                    help="cap on undirected neighbours per covariate in the local route"),
    "vertices": dict(default=10, help="number of variables (response included)"),
    "en": dict(default=3.0, help="expected vertex degree"),
    "n": dict(default=100, help="observations per replicate"),
    "reps": dict(default=1, help="number of replicates"),
    "blocks": dict(default=None, help="confine edges to this many equal blocks"),
    "timing": dict(default="wall", choices=["wall", "off"],
                   help="record wall-clock runtimes, or leave the column empty "
                        "and the mean out of the summary for byte-reproducible "
                        "output"),
    "out": dict(required=True, help="output file path"),
}
_ENV_FLAGS = ("alpha", "method", "bootstrap", "seed", "max-enum", "max-sib")
_COMMAND_FLAGS = {
    "estimate": ("input", "response", "no-standardize", "alpha", "method", "mod-zero-path",
                 "mod-prune-y", "seed", "max-enum", "max-sib", "out"),
    "score": ("input", "response", "no-standardize", "alpha", "mod-zero-path", "mod-prune-y",
              "bootstrap", "seed", "max-enum", "max-sib", "out"),
    "tune": ("input", "response", "no-standardize", "alpha", "alphas", "seed", "out"),
    "simulate": ("alpha", "method", "seed", "max-enum", "max-sib",
                 "vertices", "en", "n", "reps", "blocks", "timing", "out"),
}
_COMMAND_HELP = {
    "estimate": "per-covariate effect multisets as JSON",
    "score": "bootstrap causal scores as CSV",
    "tune": "pick the test level by BIC",
    "simulate": "replicated synthetic-data evaluation",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  With a command named, only that
    subcommand gets its flags, which is all that parsing its arguments
    reads; every subcommand is still listed."""
    parser = argparse.ArgumentParser(
        prog="causalspan",
        description=(
            "Bound the possible total causal effects of each covariate on a "
            "response from observational data."
        ),
        epilog=(
            "The defaults of --alpha, --method, --bootstrap, --seed, --max-enum "
            "and --max-sib can be overridden via environment variables prefixed "
            "CAUSALSPAN_, e.g. CAUSALSPAN_SEED=7 or CAUSALSPAN_MAX_ENUM=15; a "
            "variable applies only to the commands that have its flag, and a "
            "flag given on the command line wins."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _COMMAND_FLAGS.items():
        p = sub.add_parser(name, help=_COMMAND_HELP[name])
        if command not in (None, name):
            continue
        for flag in flags:
            spec = _FLAGS[flag]
            if flag in _ENV_FLAGS:
                spec = {**spec, "default": _env_default(flag, spec["default"])}
            p.add_argument("--" + flag, **spec)
    return parser


def _validate(args: argparse.Namespace) -> None:
    """Convert and range-check, in place, the flags of args's command."""

    def to_float(name, raw):
        try:
            return float(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"--{name} expects a number, got {raw!r}")

    def to_int(name, raw):
        try:
            return int(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"--{name} expects an integer, got {raw!r}")

    args.alpha = to_float("alpha", args.alpha)
    if not (0.0 < args.alpha < 1.0):
        raise ConfigError("--alpha must lie strictly between 0 and 1")
    if "alphas" in args and args.alphas:
        try:
            args.alphas = tuple(float(a) for a in str(args.alphas).split(","))
        except ValueError:
            raise ConfigError("--alphas expects comma-separated numbers")
        if not all(0.0 < a < 1.0 for a in args.alphas):
            raise ConfigError("every alpha must lie strictly between 0 and 1")
    # argparse applies `choices` to the command line but not to defaults.
    if "method" in args and args.method not in ("local", "global"):
        raise ConfigError("--method must be 'local' or 'global'")
    if "mods" in args:
        args.mods = frozenset(args.mods or ())
    if "bootstrap" in args:
        args.bootstrap = to_int("bootstrap", args.bootstrap)
        if args.bootstrap < 1:
            raise ConfigError("--bootstrap must be at least 1")
    if "max_enum" in args:
        args.max_enum = to_int("max-enum", args.max_enum)
        args.max_sib = to_int("max-sib", args.max_sib)
        if args.max_enum < 0 or args.max_sib < 0:
            raise ConfigError("caps must be nonnegative")
    if "blocks" in args and args.blocks is not None:
        args.blocks = to_int("blocks", args.blocks)
    args.seed = to_int("seed", args.seed)
    if args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    if "vertices" in args:
        args.vertices = to_int("vertices", args.vertices)
        args.en = to_float("en", args.en)
        args.n = to_int("n", args.n)
        args.reps = to_int("reps", args.reps)


# -- input/output helpers ------------------------------------------------------


def _fast_rows(buf: io.StringIO, width: int) -> np.ndarray | None:
    """The data rows after the header by numpy's parser, or None when it
    raises or warns, or when the shape would fail the checks of
    `_checked_rows`.  Where numpy accepts a field, it reads the same double
    as `float`; it refuses some that `float` takes (``1_000``, quoted
    fields, non-ASCII digits), and those fall back to `_checked_rows`.
    ``comments=None`` keeps a ``#`` row an error instead of a comment."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(buf, delimiter=",", comments=None, ndmin=2)
    except (ValueError, UserWarning):
        return None
    if values.shape[0] < 2 or values.shape[1] != width:
        return None
    return values


def _checked_rows(path: str, text: str, width: int) -> np.ndarray:
    """The data rows parsed record by record, with an InputError naming the
    first record that is short, long or not numeric."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != width:
            raise InputError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        try:
            data.append([float(c) for c in row])
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-numeric value")
    if len(data) < 2:
        raise InputError(f"{path}: need at least two data rows")
    return np.array(data)


def read_dataset(path: str, response: str) -> Dataset:
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            text = f.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}")
    buf = io.StringIO(text, newline="")
    header = next(csv.reader(buf), None)
    if header is None:
        raise InputError(f"{path} is empty")
    names = [c.strip() for c in header]
    if response not in names:
        raise InputError(
            f"response column '{response}' not found; columns are {names}"
        )
    values = _fast_rows(buf, len(names))
    if values is None:
        values = _checked_rows(path, text, len(names))
    try:
        return Dataset(values, tuple(names), names.index(response))
    except ValueError as e:
        raise InputError(f"{path}: {e}")


def atomic_write(path: str, text: str) -> None:
    """Write text to path via a temp file and rename, so a failed run never
    leaves a partial file at the target."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".causalspan-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# -- subcommands ---------------------------------------------------------------


def _prepared_dataset(args: argparse.Namespace) -> Dataset:
    d = read_dataset(args.input, args.response)
    return d if args.no_standardize else d.standardize()


def cmd_estimate(args: argparse.Namespace) -> int:
    d = _prepared_dataset(args)
    res = pc_cpdag(d, CITestConfig(args.alpha))
    names = list(d.names)
    g, repair_info = res.graph, None
    if args.method == "global" and not res.validation.is_valid:
        rep = repair_cpdag(res, seed=args.seed)
        g, repair_info = rep.graph, {"stage": rep.stage, "detail": rep.detail}
    plan = effects._route_plan(args.method, g, d.covariates, d.response, args.mods,
                               args.max_sib, args.max_enum, DEFAULT_MAX_DAGS)
    multisets = effects._solved(d, plan)
    ambiguities = [m.ambiguity() for m in multisets]
    table = {}
    for a in sorted(set(ambiguities)):
        table[str(a)] = ambiguities.count(a) / len(ambiguities) if ambiguities else 0.0
    report = {
        "command": "estimate",
        "response": args.response,
        "n": d.n,
        "alpha": args.alpha,
        "method": args.method,
        "mods": sorted(args.mods),
        "seed": args.seed,
        "standardized": d.standardized,
        "graph": g.to_json_dict(names),
        "repair": repair_info,
        "effects": [m.to_json_dict(names) for m in multisets],
        "ambiguity_table": table,
        "diagnostics": {
            **res.diagnostics.to_json_dict(),
            "valid_cpdag": res.validation.is_valid,
            "validation_problems": list(res.validation.problems),
        },
    }
    atomic_write(args.out, _json_text(report))
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    d = _prepared_dataset(args)
    scores = effects.bootstrap_scores(
        d,
        CITestConfig(args.alpha),
        b=args.bootstrap,
        seed=args.seed,
        mods=args.mods,
        max_siblings=args.max_sib,
        max_component_edges=args.max_enum,
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["covariate", "score", "ambiguity", "failures"])
    for s in scores.ranked():
        writer.writerow(
            [
                d.names[s.covariate],
                repr(s.score),
                "" if s.full_data_ambiguity is None else s.full_data_ambiguity,
                s.failures,
            ]
        )
    atomic_write(args.out, buf.getvalue())
    return EXIT_OK


def cmd_tune(args: argparse.Namespace) -> int:
    d = _prepared_dataset(args)
    alphas = args.alphas or (args.alpha,)
    best, scores = bic_select_alpha(d, alphas, seed=args.seed)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["alpha", "bic", "selected"])
    for a in sorted(scores):
        writer.writerow([repr(a), repr(scores[a]), str(a == best).lower()])
    atomic_write(args.out, buf.getvalue())
    print(f"selected alpha: {best}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        scenario = sim.SimScenario(
            n_vertices=args.vertices,
            en=args.en,
            n=args.n,
            n_reps=args.reps,
            blocks=args.blocks,
            seed=args.seed,
        )
    except ValueError as e:
        raise ConfigError(str(e))
    records = sim.run_scenario(
        scenario,
        methods=(args.method,),
        alpha=args.alpha,
        max_component_edges=args.max_enum,
        max_siblings=args.max_sib,
    )
    buf = io.StringIO()
    sim.write_records_csv(records, buf, timing=args.timing == "wall")
    atomic_write(args.out, buf.getvalue())
    summary = sim.summarize_records(records)
    for method, stats in summary.items():
        if args.timing == "off":
            stats.pop("mean_runtime_s", None)
        parts = [f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                 for k, v in stats.items()]
        print(f"{method}: " + " ".join(parts))
    return EXIT_OK


COMMANDS = {
    "estimate": cmd_estimate,
    "score": cmd_score,
    "tune": cmd_tune,
    "simulate": cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return COMMANDS[args.command](args)
    except CausalSpanError as e:
        print(f"error: {e}", file=sys.stderr)
        return next((c for cls, c in _EXIT_CODES.items() if isinstance(e, cls)), 1)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
