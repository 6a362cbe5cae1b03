"""Command-line interface surfaces."""

import argparse

import pytest

from sensecluster.cli import build_parser, main
from sensecluster.corpus import save_corpus

from conftest import synth_sample


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "alpha.jsonl"
    save_corpus(synth_sample("alpha", "noun", n=14, seed=3), path)
    return str(path)


REFERENCE_MATRIX = "0 2 1 0\n2 0 2 2\n1 2 0 1\n0 2 1 0\n"


class TestDim:
    def test_single_value(self, capsys):
        assert main(["dim", "--set", "B", "--category", "verb"]) == 0
        assert capsys.readouterr().out.strip() == "1361367"

    def test_full_table(self, capsys):
        assert main(["dim"]) == 0
        assert capsys.readouterr().out == (
            "set  category   dimensionality\n"
            "A    adjective  5000\n"
            "A    noun       10000\n"
            "A    verb       35000\n"
            "B    adjective  194481\n"
            "B    noun       388962\n"
            "B    verb       1361367\n"
            "C    adjective  275625\n"
            "C    noun       551250\n"
            "C    verb       1929375\n"
        )

    def test_half_specified_is_an_error(self, capsys):
        assert main(["dim", "--set", "B"]) == 1
        assert "error" in capsys.readouterr().err


def _choices(command, option):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions if option in a.option_strings)
    return list(action.choices)


class TestChoices:
    @pytest.mark.parametrize("command", ["extract", "dissim", "cluster", "em", "dim"])
    def test_feature_sets(self, command):
        assert _choices(command, "--set") == ["A", "B", "C"]

    def test_categories(self):
        assert _choices("dim", "--category") == ["adjective", "noun", "verb"]

    def test_cluster_algorithms(self):
        assert _choices("cluster", "--alg") == ["mcquitty", "ward"]


class TestEval:
    def test_two_sense_reference_caption(self, tmp_path, capsys):
        matrix = tmp_path / "cm.txt"
        matrix.write_text("worry 166 281\nbusiness 181 607\n", encoding="utf-8")
        assert main(["eval", "--matrix", str(matrix), "--name", "McQuitty"]) == 0
        out = capsys.readouterr().out
        assert "McQuitty - 773 correct" in out

    def test_unlabeled_rows(self, tmp_path, capsys):
        matrix = tmp_path / "cm.txt"
        matrix.write_text("384 63\n132 656\n", encoding="utf-8")
        assert main(["eval", "--matrix", str(matrix)]) == 0
        assert "1040 correct" in capsys.readouterr().out


class TestCluster:
    def test_identity_partition_when_k_equals_n(self, tmp_path, capsys):
        matrix = tmp_path / "d.txt"
        matrix.write_text(REFERENCE_MATRIX, encoding="utf-8")
        assert main(["cluster", "--alg", "mcquitty", "--k", "4", "--matrix", str(matrix)]) == 0
        assert capsys.readouterr().out.strip() == "0 1 2 3"

    def test_merge_trace_output(self, tmp_path, capsys):
        matrix = tmp_path / "d.txt"
        matrix.write_text(REFERENCE_MATRIX, encoding="utf-8")
        code = main(
            ["cluster", "--alg", "ward", "--k", "1", "--matrix", str(matrix), "--trace"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 3  # assignment plus one line per merge
        assert lines[1].startswith("1  ")

    def test_corpus_input_defaults_k_to_sense_count(self, corpus_file, capsys):
        assert main(["cluster", "--alg", "mcquitty", "--corpus", corpus_file, "--set", "A"]) == 0
        labels = set(capsys.readouterr().out.split())
        assert labels == {"0", "1"}

    @pytest.mark.parametrize(
        "text",
        ["0 3000000000\n3000000000 0\n", "0\n3000000000 0\n", "0 0.5\n0.5 0\n", "0\n0.5 0\n"],
        ids=["square-past-int32", "triangle-past-int32", "square-fraction", "triangle-fraction"],
    )
    @pytest.mark.parametrize("alg", ["ward", "mcquitty"])
    def test_matrix_cells_int32_cannot_hold_are_an_error(self, tmp_path, capsys, alg, text):
        matrix = tmp_path / "d.txt"
        matrix.write_text(text, encoding="utf-8")
        assert main(["cluster", "--alg", alg, "--k", "1", "--matrix", str(matrix)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "fit int32" in captured.err

    def test_requires_matrix_or_corpus(self, capsys):
        assert main(["cluster", "--alg", "ward", "--k", "2"]) == 2
        assert "cluster needs" in capsys.readouterr().err


class TestExtractAndDissim:
    def test_extract_writes_tabular_file(self, corpus_file, tmp_path):
        out = tmp_path / "matrix.tsv"
        assert main(["extract", "--corpus", corpus_file, "--set", "A", "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].split("\t") == ["M", "PL2", "PL1", "PR1", "PR2", "C1", "C2", "C3"]
        assert len(lines) == 15

    def test_dissim_triangle(self, corpus_file, capsys):
        assert main(["dissim", "--corpus", corpus_file, "--set", "A"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "0"
        assert len(lines) == 14

    def test_custom_stopwords_accepted(self, corpus_file, tmp_path, capsys):
        stop = tmp_path / "stop.txt"
        stop.write_text("the\n", encoding="utf-8")
        code = main(
            ["extract", "--corpus", corpus_file, "--set", "A", "--stopwords", str(stop)]
        )
        assert code == 0


class TestEm:
    def test_structured_output(self, corpus_file, capsys):
        code = main(
            ["em", "--corpus", corpus_file, "--set", "A", "--seed", "4", "--max-iter", "100"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "components: 2" in out
        assert "log-likelihood:" in out
        assert "assignment:" in out

    @pytest.mark.parametrize(
        "option",
        [["--max-iter", "-3"], ["--max-iter", "0"], ["--tol", "nan"], ["--tol", "-1"]],
        ids=["max-iter-negative", "max-iter-0", "tol-nan", "tol-negative"],
    )
    def test_stopping_rule_that_cannot_run_is_an_error(self, corpus_file, capsys, option):
        assert main(["em", "--corpus", corpus_file, "--set", "A", *option]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestRun:
    def test_run_from_config(self, tmp_path, capsys):
        save_corpus(synth_sample("alpha", "noun", n=14, seed=3), tmp_path / "alpha.jsonl")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\n"
            "feature_sets = A\n"
            "algorithms = mcquitty\n"
            "trials = 2\n"
            "seed = 5\n"
            "output = out\n"
            "[corpora]\n"
            "alpha = alpha.jsonl\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_em_stopping_rule_that_cannot_run_is_an_error(self, tmp_path, capsys):
        save_corpus(synth_sample("alpha", "noun", n=14, seed=3), tmp_path / "alpha.jsonl")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\n"
            "algorithms = em\n"
            "output = out\n"
            "[em]\n"
            "max_iter = -5\n"
            "tol = nan\n"
            "[corpora]\n"
            "alpha = alpha.jsonl\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[corpora]\nalpha = a.jsonl\nalpha = b.jsonl\n",
             "config line 3: repeated key [corpora] alpha"),
            ("[corpora]\nalpha = a.jsonl\n[em]\ntol = 0\n[corpora]\nbeta = b.jsonl\n",
             "config line 5: repeated section [corpora]"),
            ("trials = 3\n[corpora]\nalpha = a.jsonl\n",
             "config line 1: text before the first section header"),
            ("[corpora]\nalpha = a.jsonl\n[experiment]\ntrials 3\nseed\n",
             "config line 4: not a key = value line"),
        ],
        ids=["repeated-key", "repeated-section", "before-any-section", "no-equals"],
    )
    def test_config_line_the_parser_cannot_read_is_an_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(cfg), "-o", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_fewer_than_one_job_is_an_error(self, tmp_path, capsys, jobs):
        save_corpus(synth_sample("alpha", "noun", n=14, seed=3), tmp_path / "alpha.jsonl")
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\ntrials = 1\n[corpora]\nalpha = alpha.jsonl\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg), "-j", jobs, "-o", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: jobs must be at least 1, got {jobs}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_corpus_gives_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\noutput = out\n[corpora]\nghost = ghost.jsonl\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(cfg)]) == 1
        assert "failed" in capsys.readouterr().err


class TestUsage:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_file_reports_error(self, capsys):
        assert main(["extract", "--corpus", "no-such-file", "--set", "A"]) == 1
        assert "error" in capsys.readouterr().err
