"""End-to-end command-line tests: every subcommand is exercised through a
real subprocess, checking outputs, determinism, exit codes, and the
environment-variable overrides."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from causalspan import cli, effects, generate_data
from causalspan.cli import read_dataset
from causalspan.errors import CausalSpanError, InputError, NotExtendableError

from conftest import _weighted, cli_env, reference_local_effects, weighted_cov


def run_cli(args, cwd, env_extra=None):
    """Run the CLI in a subprocess from ``cwd``, importing src/ via ``cli_env``."""
    return subprocess.run(
        [sys.executable, "-m", "causalspan.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(env_extra),
    )


def write_csv(path, values, names):
    header = ",".join(names)
    np.savetxt(path, values, delimiter=",", header=header, comments="", fmt="%.17g")


@pytest.fixture(scope="module")
def hub_csv(tmp_path_factory):
    """A large sample from the four-variable hub model, response last."""
    w = _weighted(
        4, {(0, 1): 0.8, (2, 1): 0.8, (3, 0): -1.0, (3, 1): 2.0, (3, 2): -1.0}
    )
    cov = weighted_cov(w, np.array([0.36, 1.0, 0.36, 1.0]))
    rng = np.random.default_rng(42)
    values = rng.multivariate_normal(np.zeros(4), cov.values, size=100_000)
    path = tmp_path_factory.mktemp("hub") / "hub.csv"
    write_csv(path, values, ("X1", "X2", "X3", "Y"))
    return str(path)


@pytest.fixture(scope="module")
def chain_csv(tmp_path_factory):
    """A small three-variable chain sample A -> B -> C."""
    w = _weighted(3, {(1, 0): 1.0, (2, 1): 1.0})
    d = generate_data(w, 300, np.random.default_rng(8), names=("A", "B", "C"))
    path = tmp_path_factory.mktemp("chain") / "chain.csv"
    write_csv(path, d.values, d.names)
    return str(path)


@pytest.fixture(scope="module")
def identified_csv(tmp_path_factory):
    """The fully identified five-column model on its raw scale."""
    w = _weighted(5, {(2, 0): 2.0, (2, 1): 0.8, (4, 2): 0.5})
    d = generate_data(
        w, 2000, np.random.default_rng(0), names=("X1", "W", "X2", "X3", "Y")
    )
    path = tmp_path_factory.mktemp("ident") / "ident.csv"
    write_csv(path, d.values, d.names)
    return str(path)


class TestEstimate:
    def test_recovers_hub_structure_and_effects(self, hub_csv, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli(
            ["estimate", "--input", hub_csv, "--response", "Y",
             "--out", str(out), "--seed", "1"],
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        report = json.loads(out.read_text())
        assert report["method"] == "local"
        assert report["standardized"] is True
        assert report["repair"] is None
        assert report["diagnostics"]["valid_cpdag"] is True

        edges = {
            (e["from"], e["to"], e["directed"]) for e in report["graph"]["edges"]
        }
        assert edges == {
            (0, 1, False), (1, 2, False),
            (0, 3, True), (1, 3, True), (2, 3, True),
        }
        assert report["graph"]["names"] == ["X1", "X2", "X3", "Y"]

        by_name = {m["covariate"]: m for m in report["effects"]}
        assert set(by_name) == {"X1", "X2", "X3"}
        assert by_name["X2"]["min_abs"] == pytest.approx(0.4, abs=0.02)
        assert by_name["X1"]["min_abs"] == pytest.approx(0.04, abs=0.02)
        assert by_name["X2"]["ambiguity"] == 3
        assert by_name["X1"]["ambiguity"] == 2
        assert report["ambiguity_table"] == {"2": 2 / 3, "3": 1 / 3}

    def test_byte_order_mark_is_not_part_of_the_first_name(self, chain_csv, tmp_path):
        # Spreadsheet exports often start with a UTF-8 byte-order mark; the
        # first column must still be found by its plain name.
        with open(chain_csv) as f:
            body = f.read().split("\n", 1)[1]
        src = tmp_path / "bom.csv"
        src.write_text("\ufeffX1,X2,X3\n" + body, encoding="utf-8")
        assert src.read_bytes().startswith(b"\xef\xbb\xbfX1,")
        out = tmp_path / "report.json"
        r = run_cli(
            ["estimate", "--input", str(src), "--response", "X1", "--out", str(out)],
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["graph"]["names"] == ["X1", "X2", "X3"]
        assert [m["covariate"] for m in report["effects"]] == ["X2", "X3"]

    def test_global_route_agrees_on_distinct_values(self, hub_csv, tmp_path):
        outs = []
        for method in ("local", "global"):
            out = tmp_path / f"{method}.json"
            r = run_cli(
                ["estimate", "--input", hub_csv, "--response", "Y",
                 "--method", method, "--out", str(out)],
                cwd=tmp_path,
            )
            assert r.returncode == 0, r.stderr
            outs.append(json.loads(out.read_text()))
        for loc, glo in zip(outs[0]["effects"], outs[1]["effects"]):
            assert loc["covariate"] == glo["covariate"]
            lv = {round(e["value"], 8) for e in loc["effects"]}
            gv = {round(e["value"], 8) for e in glo["effects"]}
            assert lv == gv
        assert all(
            sum(e["multiplicity"] for e in m["effects"]) == 3
            for m in outs[1]["effects"]
        )

    def test_single_column_dataset_yields_empty_effects(self, tmp_path):
        src = tmp_path / "only_y.csv"
        src.write_text("Y\n1.0\n2.0\n0.5\n-1.0\n")
        out = tmp_path / "r.json"
        r = run_cli(
            ["estimate", "--input", str(src), "--response", "Y",
             "--out", str(out)],
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        report = json.loads(out.read_text())
        assert report["effects"] == []
        assert report["ambiguity_table"] == {}
        assert report["graph"]["p"] == 1

    def test_seed_recorded_from_environment(self, chain_csv, tmp_path):
        out = tmp_path / "r.json"
        r = run_cli(
            ["estimate", "--input", chain_csv, "--response", "C",
             "--out", str(out)],
            cwd=tmp_path,
            env_extra={"CAUSALSPAN_SEED": "7"},
        )
        assert r.returncode == 0, r.stderr
        assert json.loads(out.read_text())["seed"] == 7

    def test_explicit_flag_beats_environment(self, chain_csv, tmp_path):
        out = tmp_path / "r.json"
        r = run_cli(
            ["estimate", "--input", chain_csv, "--response", "C",
             "--seed", "3", "--out", str(out)],
            cwd=tmp_path,
            env_extra={"CAUSALSPAN_SEED": "7"},
        )
        assert r.returncode == 0, r.stderr
        assert json.loads(out.read_text())["seed"] == 3

    def test_environment_for_a_flag_it_lacks_is_ignored(self, chain_csv, tmp_path):
        out = tmp_path / "r.json"
        r = run_cli(
            ["estimate", "--input", chain_csv, "--response", "C",
             "--out", str(out)],
            cwd=tmp_path,
            env_extra={"CAUSALSPAN_BOOTSTRAP": "0"},
        )
        assert r.returncode == 0, r.stderr


class TestScore:
    def test_ranks_the_driving_covariate_first(self, identified_csv, tmp_path):
        out = tmp_path / "scores.csv"
        r = run_cli(
            ["score", "--input", identified_csv, "--response", "Y",
             "--no-standardize", "--alpha", "0.01", "--bootstrap", "10",
             "--seed", "0", "--out", str(out)],
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "covariate,score,ambiguity,failures"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 4
        assert rows[0][0] == "X1"
        assert float(rows[0][1]) > 0.85
        scores = {row[0]: float(row[1]) for row in rows}
        assert scores["X3"] < 0.05, "the isolated covariate scores near zero"
        assert all(row[3] == "0" for row in rows)

    def test_enumeration_cap_reaches_the_zero_path_check(self, chain_csv, tmp_path):
        out = tmp_path / "scores.csv"
        r = run_cli(
            ["score", "--input", chain_csv, "--response", "C",
             "--mod-zero-path", "--max-enum", "0", "--bootstrap", "3",
             "--out", str(out)],
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["A", "B"]
        assert all(row[3] == "3" for row in rows), "every replicate hits the cap"


class TestTune:
    def test_reports_scores_and_selection(self, chain_csv, tmp_path):
        out = tmp_path / "tune.csv"
        r = run_cli(
            ["tune", "--input", chain_csv, "--response", "C",
             "--alphas", "0.01,0.05", "--out", str(out)],
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.startswith("selected alpha:")
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,bic,selected"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [float(row[0]) for row in rows] == [0.01, 0.05]
        assert sum(row[2] == "true" for row in rows) == 1
        for row in rows:
            float(row[1])  # scores parse as numbers


class TestSimulate:
    def test_writes_one_row_per_replicate(self, tmp_path):
        out = tmp_path / "sim.csv"
        r = run_cli(
            ["simulate", "--vertices", "5", "--en", "2", "--n", "120",
             "--reps", "2", "--seed", "4", "--timing", "off",
             "--out", str(out)],
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.startswith("local: replicates=2")
        lines = out.read_text().splitlines()
        assert lines[0] == "rep,method,e2_ave,e2_min,runtime_s,status"
        assert len(lines) == 3
        for ln in lines[1:]:
            assert ln.split(",")[4] == "", "timing off leaves runtime empty"

    def test_wall_timing_fills_runtime(self, tmp_path):
        out = tmp_path / "sim.csv"
        r = run_cli(
            ["simulate", "--vertices", "5", "--en", "2", "--n", "120",
             "--reps", "1", "--seed", "4", "--out", str(out)],
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[4]) >= 0.0

    def test_invalid_scenario_is_a_usage_error(self, tmp_path):
        r = run_cli(
            ["simulate", "--vertices", "1", "--out", str(tmp_path / "x.csv")],
            cwd=tmp_path,
        )
        assert r.returncode == 2
        assert r.stderr.startswith("error:")


# Runs in a child interpreter where any import of scipy fails, then checks
# that nothing loaded it: scipy is a test oracle, not a runtime dependency.
_WITHOUT_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked: " + name)
        return None

sys.meta_path.insert(0, BlockScipy())
import causalspan.cli

csv, out = sys.argv[1], sys.argv[2]
codes = [
    causalspan.cli.main(["estimate", "--input", csv, "--response", "C",
                         "--method", "global", "--out", out + ".json"]),
    causalspan.cli.main(["simulate", "--vertices", "4", "--reps", "2",
                         "--seed", "1", "--timing", "off", "--out", out + ".csv"]),
]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(codes, loaded)
sys.exit(0 if codes == [0, 0] and not loaded else 1)
"""


class TestRuntimeWithoutScipy:
    def test_commands_run_with_scipy_unimportable(self, chain_csv, tmp_path):
        r = subprocess.run(
            [sys.executable, "-c", _WITHOUT_SCIPY, chain_csv, str(tmp_path / "o")],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=cli_env(),
        )
        assert r.returncode == 0, r.stdout + r.stderr
        assert r.stdout.splitlines()[-1] == "[0, 0] []"
        assert (tmp_path / "o.json").exists() and (tmp_path / "o.csv").exists()


class TestDeterminism:
    def rerun(self, args, tmp_path, name):
        """Run twice; each run gives (output file bytes, stdout)."""
        outputs = []
        for k in (1, 2):
            out = tmp_path / f"{name}{k}"
            r = run_cli([*args, "--out", str(out)], cwd=tmp_path)
            assert r.returncode == 0, r.stderr
            outputs.append((out.read_bytes(), r.stdout))
        return outputs

    def test_estimate_rerun_is_byte_identical(self, chain_csv, tmp_path):
        a, b = self.rerun(
            ["estimate", "--input", chain_csv, "--response", "C"],
            tmp_path, "est",
        )
        assert a == b

    def test_score_rerun_is_byte_identical(self, chain_csv, tmp_path):
        a, b = self.rerun(
            ["score", "--input", chain_csv, "--response", "C",
             "--bootstrap", "4", "--seed", "3"],
            tmp_path, "score",
        )
        assert a == b

    def test_tune_rerun_is_byte_identical(self, chain_csv, tmp_path):
        a, b = self.rerun(
            ["tune", "--input", chain_csv, "--response", "C",
             "--alphas", "0.01,0.05"],
            tmp_path, "tune",
        )
        assert a == b

    def test_simulate_rerun_is_byte_identical_with_timing_off(self, tmp_path):
        a, b = self.rerun(
            ["simulate", "--vertices", "5", "--en", "2", "--n", "100",
             "--reps", "2", "--seed", "9", "--timing", "off"],
            tmp_path, "sim",
        )
        assert a == b


def float_rows(text: str) -> np.ndarray:
    """The data rows of a CSV text, field by field through `float`."""
    rows = list(csv.reader(text.splitlines()))[1:]
    return np.array([[float(c) for c in row] for row in rows if row])


class TestReadDataset:
    def test_reads_the_doubles_float_reads(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((300, 4)) * 10.0 ** rng.integers(-8, 9, (300, 4))
        formats = (repr, "%.6g".__mod__, "%.17g".__mod__, "%.3f".__mod__)
        lines = ["A,B,C,D"] + [
            ",".join(formats[(r + c) % 4](float(v)) for c, v in enumerate(row))
            for r, row in enumerate(values)
        ]
        text = "\n".join(lines) + "\n"
        src = tmp_path / "mixed.csv"
        src.write_text(text)
        got = read_dataset(str(src), "D").values
        assert got.tobytes() == float_rows(text).tobytes()

    def test_fields_only_float_accepts_are_read(self, tmp_path):
        # Underscores, quotes and non-ASCII digits: the record-by-record
        # parser takes them, so they must not turn into errors.
        text = 'A,B\n1_000,"2.5"\n\uff13,4\n5,6\n'
        src = tmp_path / "odd.csv"
        src.write_text(text, encoding="utf-8")
        got = read_dataset(str(src), "B").values
        assert got.tobytes() == float_rows(text).tobytes()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("#1,2\n3,4\n5,6\n", "2: non-numeric value"),
            ("1,2\n3,x\n5,6\n", "3: non-numeric value"),
            ("1,2\n3\n5,6\n", "3: expected 2 fields, got 1"),
            ("1,2,3\n4,5,6\n", "2: expected 2 fields, got 3"),
            ("1,2\n\n", " need at least two data rows"),
        ],
    )
    def test_errors_name_the_record(self, tmp_path, body, message):
        src = tmp_path / "bad.csv"
        src.write_text("A,B\n" + body)
        with pytest.raises(InputError) as err:
            read_dataset(str(src), "B")
        assert str(err.value) == f"{src}:{message}"


class TestParserPerCommand:
    """`main` builds only the named command's flags; what it prints and
    its exit code stay those of the parser with every command's flags."""

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"], [], ["frobnicate"], ["frobnicate", "--help"],
        *[[c, "--help"] for c in cli.COMMANDS],
        ["estimate"], ["simulate", "--bogus"], ["tune", "--method", "global"],
        ["score", "--input"],
    ], ids=lambda argv: " ".join(argv) or "no-command")
    def test_same_text_and_exit_code_as_the_full_parser(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

        def run(parse):
            with pytest.raises(SystemExit) as stop:
                parse()
            out = capsys.readouterr()
            return stop.value.code, out.out, out.err

        full = run(lambda: cli.build_parser().parse_args(argv))
        assert run(lambda: cli.main(argv)) == full
        assert full[1] or full[2]

    def test_other_commands_get_no_flags(self):
        parser = cli.build_parser("tune")
        (commands,) = (a for a in parser._actions if a.dest == "command")
        flags = {name: {o for a in p._actions for o in a.option_strings}
                 for name, p in commands.choices.items()}
        assert flags["tune"] == {"-h", "--help", *("--" + f for f in cli._COMMAND_FLAGS["tune"])}
        assert all(flags[c] == {"-h", "--help"} for c in cli.COMMANDS if c != "tune")


class TestFailureModes:
    def test_missing_input_file(self, tmp_path):
        r = run_cli(
            ["estimate", "--input", str(tmp_path / "nope.csv"),
             "--response", "Y", "--out", str(tmp_path / "o.json")],
            cwd=tmp_path,
        )
        assert r.returncode == 3
        assert r.stderr.startswith("error:")

    def test_unknown_response_column(self, chain_csv, tmp_path):
        r = run_cli(
            ["estimate", "--input", chain_csv, "--response", "Z",
             "--out", str(tmp_path / "o.json")],
            cwd=tmp_path,
        )
        assert r.returncode == 3
        assert "'Z' not found" in r.stderr

    def test_ragged_row(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("A,B\n1.0,2.0\n3.0\n")
        r = run_cli(
            ["estimate", "--input", str(src), "--response", "B",
             "--out", str(tmp_path / "o.json")],
            cwd=tmp_path,
        )
        assert r.returncode == 3
        assert "expected 2 fields" in r.stderr

    def test_non_numeric_cell(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("A,B\n1.0,2.0\n3.0,zebra\n")
        r = run_cli(
            ["estimate", "--input", str(src), "--response", "B",
             "--out", str(tmp_path / "o.json")],
            cwd=tmp_path,
        )
        assert r.returncode == 3
        assert "non-numeric" in r.stderr

    def test_constant_column(self, tmp_path):
        src = tmp_path / "flat.csv"
        src.write_text("A,B\n1.0,2.0\n1.0,3.0\n1.0,4.0\n")
        r = run_cli(
            ["estimate", "--input", str(src), "--response", "B",
             "--out", str(tmp_path / "o.json")],
            cwd=tmp_path,
        )
        assert r.returncode == 3

    @pytest.mark.parametrize("command", ["estimate", "score", "tune"])
    @pytest.mark.parametrize("flags", [[], ["--no-standardize"]])
    @pytest.mark.parametrize("scales,name", [((1e200, 1.0), "A"), ((1e150, 1e170), "B")])
    def test_a_variance_that_overflows_is_an_input_error(
        self, tmp_path, command, flags, scales, name
    ):
        # Finite values, with a column scaled past the largest variance a
        # double holds: standardized or not, the run names it, writes
        # nothing, and neither a traceback nor a RuntimeWarning escapes.
        # With A scaled by 1e150 its variance (about 1e300) fits, and only
        # B's does not, though the A-B covariance overflows too.
        x = np.random.default_rng(1).standard_normal((300, 3))
        x[:, :2] *= scales
        src = tmp_path / "big.csv"
        write_csv(src, x, ("A", "B", "C"))
        out = tmp_path / "o.out"
        r = run_cli(
            [command, "--input", str(src), "--response", "C", *flags, "--out", str(out)],
            cwd=tmp_path,
            env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"},
        )
        assert r.returncode == 3
        assert r.stderr == f"error: column '{name}' has a variance too large to represent\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "score", "tune"])
    @pytest.mark.parametrize("name", ["A", "C"])
    def test_a_mean_that_overflows_is_an_input_error(self, tmp_path, command, name):
        # Every value of one column near 1e307: its sum overflows before
        # standardizing can centre it.  Covariate or response, the run
        # names that column, writes nothing, and lets no RuntimeWarning
        # or traceback escape.
        rng = np.random.default_rng(1)
        x = rng.standard_normal((300, 3))
        x[:, "ABC".index(name)] = 1e307 * (1.0 + 0.5 * rng.random(300))
        src = tmp_path / "mean.csv"
        write_csv(src, x, ("A", "B", "C"))
        out = tmp_path / "o.out"
        r = run_cli(
            [command, "--input", str(src), "--response", "C", "--out", str(out)],
            cwd=tmp_path,
            env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"},
        )
        assert r.returncode == 3
        assert r.stderr == f"error: column '{name}' has a variance too large to represent\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "column,flags,code,message",
        [
            ("duplicated", [], 4, "error: correlation submatrix for (0, 1 | ()) is singular\n"),
            ("constant", ["--no-standardize"], 3,
             "error: column 'B' is constant; correlations undefined\n"),
        ],
        ids=["duplicated", "constant"],
    )
    def test_tune_fails_when_no_alpha_scores(self, tmp_path, column, flags, code, message):
        # Column B a copy of A, or constant and left unstandardized: PC
        # fails at every alpha, so tune exits with the first alpha's error
        # and selects nothing.
        x = np.random.default_rng(1).standard_normal((300, 3))
        x[:, 1] = x[:, 0] if column == "duplicated" else 2.0
        src = tmp_path / "bad.csv"
        write_csv(src, x, ("A", "B", "C"))
        out = tmp_path / "tune.csv"
        r = run_cli(
            ["tune", "--input", str(src), "--response", "C", *flags, "--out", str(out)],
            cwd=tmp_path,
        )
        assert (r.returncode, r.stderr, r.stdout) == (code, message, "")
        assert not out.exists()

    def test_too_few_rows(self, tmp_path):
        src = tmp_path / "short.csv"
        src.write_text("A,B\n1.0,2.0\n")
        r = run_cli(
            ["estimate", "--input", str(src), "--response", "B",
             "--out", str(tmp_path / "o.json")],
            cwd=tmp_path,
        )
        assert r.returncode == 3
        assert "two data rows" in r.stderr

    def test_alpha_out_of_range(self, chain_csv, tmp_path):
        r = run_cli(
            ["estimate", "--input", chain_csv, "--response", "C",
             "--alpha", "1.5", "--out", str(tmp_path / "o.json")],
            cwd=tmp_path,
        )
        assert r.returncode == 2
        assert "between 0 and 1" in r.stderr

    def test_alpha_not_a_number(self, chain_csv, tmp_path):
        r = run_cli(
            ["estimate", "--input", chain_csv, "--response", "C",
             "--alpha", "abc", "--out", str(tmp_path / "o.json")],
            cwd=tmp_path,
        )
        assert r.returncode == 2
        assert "expects a number" in r.stderr

    def test_alpha_override_from_environment(self, chain_csv, tmp_path):
        r = run_cli(
            ["estimate", "--input", chain_csv, "--response", "C",
             "--out", str(tmp_path / "o.json")],
            cwd=tmp_path,
            env_extra={"CAUSALSPAN_ALPHA": "1.5"},
        )
        assert r.returncode == 2, "the environment default reaches validation"
        assert "between 0 and 1" in r.stderr

    def test_zero_bootstrap_rejected(self, chain_csv, tmp_path):
        r = run_cli(
            ["score", "--input", chain_csv, "--response", "C",
             "--bootstrap", "0", "--out", str(tmp_path / "o.csv")],
            cwd=tmp_path,
        )
        assert r.returncode == 2

    def test_sibling_cap_exceeded(self, chain_csv, tmp_path):
        r = run_cli(
            ["estimate", "--input", chain_csv, "--response", "C",
             "--max-sib", "0", "--out", str(tmp_path / "o.json")],
            cwd=tmp_path,
        )
        assert r.returncode == 5
        assert "cap" in r.stderr

    def test_duplicated_column_is_a_numerical_error(self, chain_csv, tmp_path):
        values = np.loadtxt(chain_csv, delimiter=",", skiprows=1)
        src = tmp_path / "dup.csv"
        write_csv(src, np.column_stack([values, values[:, 0]]), ("A", "B", "C", "A2"))
        r = run_cli(
            ["estimate", "--input", str(src), "--response", "C",
             "--out", str(tmp_path / "o.json")],
            cwd=tmp_path,
        )
        assert r.returncode == 4
        assert r.stderr == "error: correlation submatrix for (0, 3 | ()) is singular\n"

    def test_other_package_error_exits_one(self, chain_csv, tmp_path, monkeypatch, capsys):
        def fail(args):
            raise NotExtendableError("no extension")

        monkeypatch.setitem(cli.COMMANDS, "estimate", fail)
        code = cli.main(["estimate", "--input", chain_csv, "--response", "C",
                         "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert capsys.readouterr().err == "error: no extension\n"

    def test_enumeration_cap_exceeded(self, chain_csv, tmp_path):
        r = run_cli(
            ["estimate", "--input", chain_csv, "--response", "C",
             "--method", "global", "--max-enum", "0",
             "--out", str(tmp_path / "o.json")],
            cwd=tmp_path,
        )
        assert r.returncode == 5

    def test_bad_method_rejected_by_parser(self, chain_csv, tmp_path):
        r = run_cli(
            ["estimate", "--input", chain_csv, "--response", "C",
             "--method", "magic", "--out", str(tmp_path / "o.json")],
            cwd=tmp_path,
        )
        assert r.returncode == 2

    def test_bad_method_from_environment(self, chain_csv, tmp_path):
        r = run_cli(
            ["estimate", "--input", chain_csv, "--response", "C",
             "--out", str(tmp_path / "o.json")],
            cwd=tmp_path,
            env_extra={"CAUSALSPAN_METHOD": "magic"},
        )
        assert r.returncode == 2
        assert "--method must be 'local' or 'global'" in r.stderr

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("tune", ["--method", "global"]),
            ("score", ["--method", "global"]),
            ("simulate", ["--mod-zero-path"]),
            ("estimate", ["--bootstrap", "3"]),
        ],
    )
    def test_flag_the_command_does_not_read(self, chain_csv, tmp_path, command, flag):
        data = [] if command == "simulate" else ["--input", chain_csv, "--response", "C"]
        target = tmp_path / "o"
        r = run_cli([command, *data, *flag, "--out", str(target)], cwd=tmp_path)
        assert r.returncode == 2
        assert "unrecognized arguments" in r.stderr
        assert not target.exists()

    @pytest.mark.parametrize("source", ["flag", "environment"])
    @pytest.mark.parametrize("command", ["estimate", "score", "tune", "simulate"])
    def test_negative_seed_is_a_usage_error(self, chain_csv, tmp_path, command, source):
        data = [] if command == "simulate" else ["--input", chain_csv, "--response", "C"]
        seed = ["--seed", "-1"] if source == "flag" else []
        target = tmp_path / "o"
        r = run_cli(
            [command, *data, *seed, "--out", str(target)],
            cwd=tmp_path,
            env_extra={"CAUSALSPAN_SEED": "-1"} if source == "environment" else None,
        )
        assert r.returncode == 2
        assert r.stderr == "error: --seed must be nonnegative\n"
        assert not target.exists()

    def test_no_arguments_is_a_usage_error(self, tmp_path):
        r = run_cli([], cwd=tmp_path)
        assert r.returncode == 2

    def test_failed_run_leaves_no_output_file(self, chain_csv, tmp_path):
        target = tmp_path / "never.json"
        r = run_cli(
            ["estimate", "--input", chain_csv, "--response", "C",
             "--max-sib", "0", "--out", str(target)],
            cwd=tmp_path,
        )
        assert r.returncode == 5
        assert not target.exists()
        leftovers = [p.name for p in tmp_path.iterdir() if "causalspan" in p.name]
        assert leftovers == []


class TestBatchedLocalRoute:
    """`score` plans the local route on every graph of a batch of samples
    and solves all their regressions at once, and `estimate --method
    local` does so for its graph.  With a sibling cap that fails some
    covariates, their outputs, exit codes and messages must equal those of
    `reference_local_effects` run one covariate and one regression at a
    time on each sample's graph and covariance."""

    @staticmethod
    def one_at_a_time(source, g, covariates, y, mods, max_siblings, max_component_edges,
                      max_dags=effects.DEFAULT_MAX_DAGS):
        out = []
        for i in covariates:
            try:
                out.append(reference_local_effects(
                    source, g, i, y, mods, max_siblings, max_component_edges, max_dags))
            except CausalSpanError as e:
                out.append(e)
        return out

    @classmethod
    def reference_plan(cls, g, covariates, y, mods, max_siblings, max_component_edges,
                       max_dags=effects.DEFAULT_MAX_DAGS):
        # A callable in place of the plan: the patched `_finish_plans`
        # runs the reference on the plan's source.
        return lambda source: cls.one_at_a_time(
            source, g, covariates, y, mods, max_siblings, max_component_edges, max_dags)

    @staticmethod
    def run(argv, capsys):
        code = cli.main(argv)
        return code, capsys.readouterr().err

    def test_outputs_match_one_covariate_at_a_time(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        p = 15
        b = np.tril(rng.uniform(0.5, 1.0, (p, p)) * (rng.uniform(size=(p, p)) < 0.25), -1)
        x = rng.standard_normal((300, p)) @ np.linalg.inv(np.eye(p) - b).T
        src = tmp_path / "in.csv"
        write_csv(src, x, [f"X{i}" for i in range(p)])
        common = ["--input", str(src), "--response", f"X{p - 1}", "--max-sib", "1"]
        outputs, sources = [], []

        def finish_on_source(plans):
            sources.extend(source for source, _ in plans)
            return [plan(source) for source, plan in plans]

        for patched in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                if patched:
                    mp.setattr(effects, "_local_plan", self.reference_plan)
                    mp.setattr(effects, "_finish_plans", finish_on_source)
                score = tmp_path / f"score{patched}.csv"
                assert self.run(["score", *common, "--bootstrap", "3", "--seed", "1",
                                 "--out", str(score)], capsys) == (0, "")
                estimate = self.run(["estimate", *common, "--out", str(tmp_path / "e.json")],
                                    capsys)
            outputs.append((score.read_bytes(), estimate))
        assert outputs[0] == outputs[1]
        # The reference ran on the full data, the three resamples and the
        # estimate's data.
        assert len(sources) == 5
        rows = list(csv.DictReader(outputs[0][0].decode().splitlines()))
        assert {r["failures"] == "0" for r in rows} == {True, False}
        code, err = outputs[0][1]
        assert code == 5
        assert err.startswith("error: covariate ") and err.endswith("(cap 1)\n")
        assert not (tmp_path / "e.json").exists()
