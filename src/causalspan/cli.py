"""Command-line interface.

Four subcommands: `estimate` writes a JSON report of per-covariate effect
multisets, `score` writes a CSV of bootstrap causal scores, `tune` writes a
CSV of per-alpha BIC scores, and `simulate` writes a CSV of replicated
synthetic-data results.

Every command is deterministic given its input files, flags, and seed
(`simulate` additionally needs --timing off, since wall-clock times are
not reproducible).  Output files are written atomically: nothing appears
at the target path until the command has fully succeeded.

Exit codes: 0 success, 2 configuration or usage error, 3 input error,
4 numerical error, 5 resource cap exceeded.  The defaults of --alpha,
--method, --bootstrap, --seed, --max-enum and --max-sib can be overridden
with environment variables named CAUSALSPAN_<FLAG> (dashes as
underscores), for example CAUSALSPAN_ALPHA=0.05 or CAUSALSPAN_MAX_ENUM=15;
a flag given on the command line wins.  No other flag reads the
environment.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass

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
from .pc import bic_select_alpha, pc_cpdag, repair_cpdag

ENV_PREFIX = "CAUSALSPAN_"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4
EXIT_RESOURCE = 5


def _env_default(flag: str, fallback):
    return os.environ.get(ENV_PREFIX + flag.upper().replace("-", "_"), fallback)


@dataclass(frozen=True)
class RunConfig:
    """Validated settings shared by the subcommands."""

    command: str
    input_path: str | None
    response: str | None
    alpha: float
    alphas: tuple[float, ...]
    method: str
    mods: frozenset[str]
    bootstrap: int
    seed: int
    standardize: bool
    out: str
    max_enum: int
    max_sib: int
    n_vertices: int
    en: float
    n: int
    reps: int
    blocks: int | None
    timing: str

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
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

        alpha = to_float("alpha", args.alpha)
        if not (0.0 < alpha < 1.0):
            raise ConfigError("--alpha must lie strictly between 0 and 1")
        alphas = ()
        if getattr(args, "alphas", None):
            try:
                alphas = tuple(float(a) for a in str(args.alphas).split(","))
            except ValueError:
                raise ConfigError("--alphas expects comma-separated numbers")
            if not all(0.0 < a < 1.0 for a in alphas):
                raise ConfigError("every alpha must lie strictly between 0 and 1")
        method = str(args.method)
        if method not in ("local", "global"):
            raise ConfigError("--method must be 'local' or 'global'")
        mods = set()
        if getattr(args, "mod_zero_path", False):
            mods.add(effects.MOD_ZERO_PATH)
        if getattr(args, "mod_prune_y", False):
            mods.add(effects.MOD_PRUNE_Y)
        bootstrap = to_int("bootstrap", args.bootstrap)
        if bootstrap < 1:
            raise ConfigError("--bootstrap must be at least 1")
        max_enum = to_int("max-enum", args.max_enum)
        max_sib = to_int("max-sib", args.max_sib)
        if max_enum < 0 or max_sib < 0:
            raise ConfigError("caps must be nonnegative")
        blocks = getattr(args, "blocks", None)
        blocks = None if blocks in (None, 0) else to_int("blocks", blocks)
        return cls(
            command=args.command,
            input_path=getattr(args, "input", None),
            response=getattr(args, "response", None),
            alpha=alpha,
            alphas=alphas,
            method=method,
            mods=frozenset(mods),
            bootstrap=bootstrap,
            seed=to_int("seed", args.seed),
            standardize=not getattr(args, "no_standardize", False),
            out=args.out,
            max_enum=max_enum,
            max_sib=max_sib,
            n_vertices=to_int("vertices", getattr(args, "vertices", 10)),
            en=to_float("en", getattr(args, "en", 3.0)),
            n=to_int("n", getattr(args, "n", 100)),
            reps=to_int("reps", getattr(args, "reps", 1)),
            blocks=blocks,
            timing=getattr(args, "timing", "wall"),
        )


def build_parser() -> argparse.ArgumentParser:
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
            "flag given on the command line wins."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        if with_input:
            p.add_argument("--input", required=True, help="CSV file with a header row")
            p.add_argument("--response", required=True, help="name of the response column")
            p.add_argument(
                "--no-standardize",
                action="store_true",
                help="keep covariates on their original scale",
            )
        p.add_argument("--alpha", default=_env_default("alpha", 0.01),
                       help="test level for conditional independence (default 0.01)")
        p.add_argument("--method", default=_env_default("method", "local"),
                       choices=["local", "global"], help="effect computation route")
        p.add_argument("--mod-zero-path", action="store_true",
                       help="report zero when no directed path can reach the response")
        p.add_argument("--mod-prune-y", action="store_true",
                       help="ignore parents/siblings with no skeleton path to the response")
        p.add_argument("--bootstrap", default=_env_default("bootstrap", 10),
                       help="number of bootstrap replicates (score command)")
        p.add_argument("--seed", default=_env_default("seed", 0), help="random seed")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--max-enum", default=_env_default("max_enum", 12),
                       help="cap on undirected edges per component before enumeration refuses")
        p.add_argument("--max-sib", default=_env_default("max_sib", 25),
                       help="cap on undirected neighbours per covariate in the local route")

    p_est = sub.add_parser("estimate", help="per-covariate effect multisets as JSON")
    common(p_est)

    p_score = sub.add_parser("score", help="bootstrap causal scores as CSV")
    common(p_score)

    p_tune = sub.add_parser("tune", help="pick the test level by BIC")
    common(p_tune)
    p_tune.add_argument("--alphas", default="0.001,0.005,0.01,0.05,0.1",
                        help="comma-separated candidate levels")

    p_sim = sub.add_parser("simulate", help="replicated synthetic-data evaluation")
    common(p_sim, with_input=False)
    p_sim.add_argument("--vertices", default=10, help="number of variables (response included)")
    p_sim.add_argument("--en", default=3.0, help="expected vertex degree")
    p_sim.add_argument("--n", default=100, help="observations per replicate")
    p_sim.add_argument("--reps", default=1, help="number of replicates")
    p_sim.add_argument("--blocks", default=None, help="confine edges to this many equal blocks")
    p_sim.add_argument("--timing", default="wall", choices=["wall", "off"],
                       help="record wall-clock runtimes, or leave the column empty "
                            "for byte-reproducible output")
    return parser


# -- input/output helpers ------------------------------------------------------


def read_dataset(path: str, response: str) -> Dataset:
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}")
    if not rows:
        raise InputError(f"{path} is empty")
    names = [c.strip() for c in rows[0]]
    if response not in names:
        raise InputError(
            f"response column '{response}' not found; columns are {names}"
        )
    width = len(names)
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
    try:
        return Dataset(np.array(data), tuple(names), names.index(response))
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


def _prepared_dataset(cfg: RunConfig) -> Dataset:
    d = read_dataset(cfg.input_path, cfg.response)
    if cfg.standardize:
        d = d.standardize()
    return d


def cmd_estimate(cfg: RunConfig) -> int:
    d = _prepared_dataset(cfg)
    res = pc_cpdag(d, CITestConfig(cfg.alpha))
    names = list(d.names)
    repair_info = None
    multisets: list[effects.EffectMultiset] = []
    if cfg.method == "global":
        g = res.graph
        if not res.validation.is_valid:
            rep = repair_cpdag(res, seed=cfg.seed)
            g = rep.graph
            repair_info = {"stage": rep.stage, "detail": rep.detail}
        theta = effects.global_effects(
            d, g, d.response, cfg.mods, cfg.max_enum
        )
        multisets = [theta.row_multiset(i) for i in d.covariates]
        graph_used = g
    else:
        for i in d.covariates:
            multisets.append(
                effects.local_effects(
                    d, res.graph, i, d.response, cfg.mods,
                    cfg.max_sib, cfg.max_enum,
                )
            )
        graph_used = res.graph
    ambiguities = [m.ambiguity() for m in multisets]
    table = {}
    for a in sorted(set(ambiguities)):
        table[str(a)] = ambiguities.count(a) / len(ambiguities) if ambiguities else 0.0
    report = {
        "command": "estimate",
        "response": cfg.response,
        "n": d.n,
        "alpha": cfg.alpha,
        "method": cfg.method,
        "mods": sorted(cfg.mods),
        "seed": cfg.seed,
        "standardized": d.standardized,
        "graph": graph_used.to_json_dict(names),
        "repair": repair_info,
        "effects": [m.to_json_dict(names) for m in multisets],
        "ambiguity_table": table,
        "diagnostics": {
            **res.diagnostics.to_json_dict(),
            "valid_cpdag": res.validation.is_valid,
            "validation_problems": list(res.validation.problems),
        },
    }
    atomic_write(cfg.out, _json_text(report))
    return EXIT_OK


def cmd_score(cfg: RunConfig) -> int:
    d = _prepared_dataset(cfg)
    scores = effects.bootstrap_scores(
        d,
        CITestConfig(cfg.alpha),
        b=cfg.bootstrap,
        seed=cfg.seed,
        mods=cfg.mods,
        max_siblings=cfg.max_sib,
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
    atomic_write(cfg.out, buf.getvalue())
    return EXIT_OK


def cmd_tune(cfg: RunConfig) -> int:
    d = _prepared_dataset(cfg)
    alphas = cfg.alphas or (cfg.alpha,)
    best, scores = bic_select_alpha(d, alphas, seed=cfg.seed)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["alpha", "bic", "selected"])
    for a in sorted(scores):
        writer.writerow([repr(a), repr(scores[a]), str(a == best).lower()])
    atomic_write(cfg.out, buf.getvalue())
    print(f"selected alpha: {best}")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    try:
        scenario = sim.SimScenario(
            n_vertices=cfg.n_vertices,
            en=cfg.en,
            n=cfg.n,
            n_reps=cfg.reps,
            blocks=cfg.blocks,
            seed=cfg.seed,
        )
    except ValueError as e:
        raise ConfigError(str(e))
    records = sim.run_scenario(
        scenario,
        methods=(cfg.method,) if cfg.method else ("local", "global"),
        alpha=cfg.alpha,
        max_component_edges=cfg.max_enum,
        max_siblings=cfg.max_sib,
    )
    buf = io.StringIO()
    sim.write_records_csv(records, buf, timing=cfg.timing == "wall")
    atomic_write(cfg.out, buf.getvalue())
    summary = sim.summarize_records(records)
    for method, stats in summary.items():
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
        return COMMANDS[cfg.command](cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalRankError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ResourceCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except CausalSpanError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
