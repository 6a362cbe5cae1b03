"""Experiment runner: grid execution, outputs, determinism."""

from collections import Counter

import numpy as np
import pytest

from sensecluster import agglom, dissim, em, runner
from sensecluster.corpus import save_corpus
from sensecluster.evaluate import category_rollup, majority_classifier
from sensecluster.runner import ExperimentConfig, load_config, run, trial_seed

from conftest import random_sample, synth_sample


@pytest.fixture
def corpus_dir(tmp_path):
    words = {
        "alpha": synth_sample("alpha", "noun", n=18, seed=1),
        "beta": synth_sample("beta", "verb", n=16, seed=2),
    }
    paths = {}
    for word, sample in words.items():
        path = tmp_path / f"{word}.jsonl"
        save_corpus(sample, path)
        paths[word] = str(path)
    return tmp_path, paths


def make_config(paths, outdir, **kwargs):
    defaults = dict(
        corpora=paths,
        feature_sets=("A",),
        algorithms=("mcquitty",),
        trials=2,
        seed=7,
        output_dir=str(outdir),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_validation(self, corpus_dir, tmp_path):
        _, paths = corpus_dir
        with pytest.raises(ValueError, match="trials"):
            make_config(paths, tmp_path / "o", trials=0)
        with pytest.raises(ValueError, match="feature set"):
            make_config(paths, tmp_path / "o", feature_sets=("Z",))
        with pytest.raises(ValueError, match="algorithm"):
            make_config(paths, tmp_path / "o", algorithms=("kmeans",))
        with pytest.raises(ValueError, match="corpora"):
            make_config({}, tmp_path / "o")
        with pytest.raises(ValueError, match="duplicate feature set"):
            make_config(paths, tmp_path / "o", feature_sets=("A", "a"))
        with pytest.raises(ValueError, match="duplicate algorithm"):
            make_config(paths, tmp_path / "o", algorithms=("em", "mcquitty", "EM"))

    def test_load_config_file(self, corpus_dir):
        base, paths = corpus_dir
        cfg_text = (
            "[experiment]\n"
            "feature_sets = A C\n"
            "algorithms = mcquitty em\n"
            "trials = 3\n"
            "seed = 99\n"
            "output = out\n"
            "report_trial = 2\n"
            "[em]\n"
            "max_iter = 50\n"
            "tol = 1e-5\n"
            "[stopwords]\n"
            "path = lists/stop.txt\n"
            "[corpora]\n"
            "alpha = alpha.jsonl\n"
            "beta = beta.jsonl\n"
        )
        cfg_path = base / "exp.ini"
        cfg_path.write_text(cfg_text, encoding="utf-8")
        config = load_config(cfg_path)
        assert config.feature_sets == ("A", "C")
        assert config.algorithms == ("mcquitty", "em")
        assert config.trials == 3
        assert config.seed == 99
        assert config.em_max_iter == 50
        assert config.em_tol == 1e-5
        assert config.report_trial == 2
        assert config.corpora["alpha"] == str((base / "alpha.jsonl").resolve())
        assert config.output_dir == str((base / "out").resolve())
        assert config.stopwords_path == str((base / "lists" / "stop.txt").resolve())

    def test_inline_comments_in_config(self, corpus_dir):
        base, _ = corpus_dir
        cfg_path = base / "exp.ini"
        cfg_path.write_text(
            "[experiment]\n"
            "trials = 4        ; repeated seeded trials\n"
            "output = out      # run artifacts land here\n"
            "[corpora]\n"
            "alpha = alpha.jsonl\n",
            encoding="utf-8",
        )
        config = load_config(cfg_path)
        assert config.trials == 4
        assert config.output_dir.endswith("out")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[experiment]\ntrails = 5\n", r"unknown config key \[experiment\] trails"),
            ("[em]\nmax_iter = 5\ntolerance = 0\n", r"unknown config key \[em\] tolerance"),
            ("[stopword]\npath = stop.txt\n", r"unknown config section \[stopword\]"),
            ("[stopword]\n", r"unknown config section \[stopword\]"),
            ("[DEFAULT]\ntrials = 3\n", r"unknown config section \[DEFAULT\]"),
            ("[experiment]\ntrials = five\n", r"config key \[experiment\] trials: invalid"),
            ("[em]\ntol = small\n", r"config key \[em\] tol: could not convert"),
        ],
        ids=["key", "em-key", "section", "empty-section", "default", "int-value", "float-value"],
    )
    def test_unknown_or_unreadable_keys_are_errors(self, corpus_dir, text, message):
        base, _ = corpus_dir
        cfg_path = base / "exp.ini"
        cfg_path.write_text(text + "[corpora]\nalpha = alpha.jsonl\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_config(cfg_path)

    def test_trial_seed_is_stable_and_distinct(self):
        s = trial_seed(7, "alpha", "A", "mcquitty", 0)
        assert s == trial_seed(7, "alpha", "A", "mcquitty", 0)
        others = {
            trial_seed(7, "alpha", "A", "mcquitty", 1),
            trial_seed(7, "alpha", "A", "ward", 0),
            trial_seed(7, "alpha", "B", "mcquitty", 0),
            trial_seed(7, "beta", "A", "mcquitty", 0),
            trial_seed(8, "alpha", "A", "mcquitty", 0),
        }
        assert s not in others
        assert len(others) == 5


class TestRun:
    def test_counting_contract(self, corpus_dir, tmp_path):
        _, paths = corpus_dir
        outdir = tmp_path / "out"
        config = make_config({"alpha": paths["alpha"]}, outdir)
        assert run(config) == 0
        results = (outdir / "results.csv").read_text().strip().split("\n")
        assert len(results) == 1 + 2  # header + one row per trial
        aggregates = (outdir / "aggregates.csv").read_text().strip().split("\n")
        assert len(aggregates) == 1 + 1
        assert (outdir / "confusion" / "alpha_A_mcquitty.txt").exists()
        assert (outdir / "summary.txt").exists()

    def test_results_schema(self, corpus_dir, tmp_path):
        _, paths = corpus_dir
        outdir = tmp_path / "out"
        run(make_config({"alpha": paths["alpha"]}, outdir))
        lines = (outdir / "results.csv").read_text().strip().split("\n")
        assert lines[0] == "word,set,algorithm,trial,seed,accuracy,n,k"
        fields = lines[1].split(",")
        assert fields[0] == "alpha"
        assert fields[1] == "A"
        assert fields[2] == "mcquitty"
        assert fields[3] == "0"
        assert int(fields[4]) == trial_seed(7, "alpha", "A", "mcquitty", 0)
        assert 0.0 <= float(fields[5]) <= 1.0
        assert fields[6] == "18"
        assert fields[7] == "2"

    def test_full_grid_runs_every_cell(self, corpus_dir, tmp_path):
        _, paths = corpus_dir
        outdir = tmp_path / "out"
        config = make_config(
            paths, outdir,
            feature_sets=("A", "B", "C"),
            algorithms=("mcquitty", "ward", "em"),
            trials=2,
            em_max_iter=200,
        )
        assert run(config) == 0
        aggregates = (outdir / "aggregates.csv").read_text().strip().split("\n")
        assert len(aggregates) == 1 + 2 * 3 * 3
        results = (outdir / "results.csv").read_text().strip().split("\n")
        assert len(results) == 1 + 2 * 3 * 3 * 2

    def test_thirteen_words_three_sets_three_algorithms_is_117_cells(self, tmp_path):
        categories = ["adjective"] * 4 + ["noun"] * 5 + ["verb"] * 4
        paths = {}
        for i, category in enumerate(categories):
            word = f"word{i:02d}"
            sample = synth_sample(word, category, n=10, seed=50 + i)
            path = tmp_path / f"{word}.jsonl"
            save_corpus(sample, path)
            paths[word] = str(path)
        outdir = tmp_path / "out"
        config = make_config(
            paths, outdir,
            feature_sets=("A", "B", "C"),
            algorithms=("mcquitty", "ward", "em"),
            trials=1,
            em_max_iter=100,
        )
        assert run(config, jobs=4) == 0
        aggregates = (outdir / "aggregates.csv").read_text().strip().split("\n")
        assert len(aggregates) == 1 + 117
        results = (outdir / "results.csv").read_text().strip().split("\n")
        assert len(results) == 1 + 117
        summary = (outdir / "summary.txt").read_text()
        for row in ("adjective", "noun", "verb", "overall"):
            assert any(line.startswith(row) for line in summary.split("\n"))

    def test_exact_reruns_are_byte_identical(self, corpus_dir, tmp_path):
        _, paths = corpus_dir
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        config1 = make_config(paths, out1, feature_sets=("A", "B"), algorithms=("mcquitty", "em"))
        config2 = make_config(paths, out2, feature_sets=("A", "B"), algorithms=("mcquitty", "em"))
        run(config1)
        run(config2)
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "aggregates.csv").read_bytes() == (out2 / "aggregates.csv").read_bytes()
        assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()

    def test_parallel_run_matches_serial(self, corpus_dir, tmp_path):
        _, paths = corpus_dir
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        grid = dict(
            feature_sets=("A", "B"), algorithms=("mcquitty", "ward", "em"), em_max_iter=200
        )
        assert run(make_config(paths, out1, **grid), jobs=1) == 0
        assert run(make_config(paths, out2, **grid), jobs=3) == 0
        names = ["results.csv", "aggregates.csv", "summary.txt"]
        confusion = sorted(p.name for p in (out1 / "confusion").iterdir())
        assert len(confusion) == 2 * 2 * 3
        assert confusion == sorted(p.name for p in (out2 / "confusion").iterdir())
        names += [f"confusion/{name}" for name in confusion]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_removing_a_word_leaves_others_unchanged(self, corpus_dir, tmp_path):
        _, paths = corpus_dir
        out_both, out_one = tmp_path / "both", tmp_path / "one"
        run(make_config(paths, out_both))
        run(make_config({"alpha": paths["alpha"]}, out_one))
        both = (out_both / "results.csv").read_text().strip().split("\n")
        one = (out_one / "results.csv").read_text().strip().split("\n")
        alpha_rows_both = [r for r in both if r.startswith("alpha,")]
        alpha_rows_one = [r for r in one if r.startswith("alpha,")]
        assert alpha_rows_both == alpha_rows_one

    def test_cell_failure_reported_but_not_fatal(self, corpus_dir, tmp_path, capsys):
        _, paths = corpus_dir
        bad = dict(paths)
        bad["gamma"] = str(tmp_path / "missing.jsonl")
        outdir = tmp_path / "out"
        status = run(make_config(bad, outdir))
        assert status == 1
        err = capsys.readouterr().err
        assert "gamma" in err and "failed" in err
        results = (outdir / "results.csv").read_text()
        assert "alpha," in results and "beta," in results

    def test_untagged_corpus_needs_dump_flag(self, tmp_path, capsys):
        sample = synth_sample("delta", "noun", n=12, seed=5)
        from sensecluster.corpus import Instance, WordSample

        untagged = WordSample(
            sample.word,
            sample.category,
            tuple(
                Instance(i.tokens, i.target_index, i.morph, None)
                for i in sample.instances
            ),
            sample.sense_inventory,
        )
        path = tmp_path / "delta.jsonl"
        save_corpus(untagged, path)

        algorithms = ("mcquitty", "ward", "em")
        fail = make_config({"delta": str(path)}, tmp_path / "fail", algorithms=algorithms)
        assert run(fail) == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert [line.split(" failed:")[0] for line in err_lines] == [
            f"cell (delta, A, {alg})" for alg in algorithms
        ]
        assert all("untagged" in line for line in err_lines)

        outdir = tmp_path / "ok"
        status = run(make_config({"delta": str(path)}, outdir, dump_clusters=True))
        assert status == 0
        dumped = outdir / "assignments" / "delta_A_mcquitty_t0.txt"
        assert dumped.exists()
        labels = dumped.read_text().split()
        assert len(labels) == 12
        assert set(labels) <= {"0", "1"}

    @pytest.mark.parametrize(
        "module, name, broken_algs",
        [(em, "fit", ("em",)), (dissim, "build", ("mcquitty", "ward"))],
        ids=["em.fit", "dissim.build"],
    )
    def test_failure_fails_only_the_cells_that_need_it(
        self, corpus_dir, tmp_path, capsys, monkeypatch, module, name, broken_algs
    ):
        _, paths = corpus_dir

        def broken(*args, **kwargs):
            raise RuntimeError("broken")

        monkeypatch.setattr(module, name, broken)
        outdir = tmp_path / "out"
        algorithms = ("mcquitty", "em", "ward")
        config = make_config(paths, outdir, feature_sets=("A", "B"), algorithms=algorithms)
        assert run(config) == 1
        grid = [(w, s, a) for w in ("alpha", "beta") for s in ("A", "B") for a in algorithms]
        assert capsys.readouterr().err.splitlines() == [
            f"cell ({w}, {s}, {a}) failed: RuntimeError: broken"
            for w, s, a in grid
            if a in broken_algs
        ]
        rows = [row.split(",") for row in (outdir / "results.csv").read_text().split()[1:]]
        kept = [cell for cell in grid if cell[2] not in broken_algs]
        assert [tuple(row[:3]) for row in rows if row[3] == "0"] == kept
        assert len(rows) == 2 * len(kept)
        for alg in broken_algs:
            assert not list((outdir / "confusion").glob(f"*_{alg}.txt"))

    def test_shared_work_runs_once_per_word_and_set(self, corpus_dir, tmp_path, monkeypatch):
        _, paths = corpus_dir
        calls = Counter()

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("load_corpus", "build_schema", "extract"):
            counting(runner, name)
        counting(dissim, "build")

        sets = ("A", "B", "C")
        config = make_config(
            paths, tmp_path / "all", feature_sets=sets, algorithms=("mcquitty", "ward", "em"),
            em_max_iter=50,
        )
        assert run(config) == 0
        units = len(paths) * len(sets)
        assert calls == {
            "load_corpus": len(paths), "build_schema": units, "extract": units, "build": units
        }

        calls.clear()
        config = make_config(paths, tmp_path / "em", feature_sets=sets, algorithms=("em",))
        assert run(config) == 0
        assert calls == {"load_corpus": len(paths), "build_schema": units, "extract": units}

    def test_nine_sense_corpus_writes_its_results(self, tmp_path, capsys):
        sample = random_sample(np.random.default_rng(9), n=45, n_senses=9)
        path = tmp_path / "term.jsonl"
        save_corpus(sample, path)
        outdir = tmp_path / "out"
        algorithms = ("mcquitty", "ward", "em")
        config = make_config({"term": str(path)}, outdir, algorithms=algorithms, em_max_iter=50)
        assert run(config) == 0
        assert capsys.readouterr().err == ""
        rows = [row.split(",") for row in (outdir / "results.csv").read_text().split()[1:]]
        assert [(row[2], row[7]) for row in rows] == [(alg, "9") for alg in algorithms for _ in range(2)]
        for alg in algorithms:
            text = (outdir / "confusion" / f"term_A_{alg}.txt").read_text()
            assert all(f"s{i}" in text for i in range(9))

    def test_summary_table_layout(self, corpus_dir, tmp_path):
        _, paths = corpus_dir
        outdir = tmp_path / "out"
        run(make_config(paths, outdir, algorithms=("mcquitty", "em"), em_max_iter=200))
        text = (outdir / "summary.txt").read_text()
        lines = text.strip().split("\n")
        assert lines[0].split() == ["word", "Maj", "A/mcquitty", "A/em"]
        table = lines[1 : lines.index("")]
        words = [line.split()[0] for line in table]
        # category rollup rows follow their word groups; overall closes the table
        assert words == ["alpha", "noun", "beta", "verb", "overall"]
        assert "±" in table[0]
        # every word row marks at least its best experiment
        assert all("*" in line for line in table if line.split()[0] in ("alpha", "beta"))
        assert lines[-1].startswith("*")

    def test_summary_rollups_with_partial_columns(self, corpus_dir, tmp_path, monkeypatch):
        base, _ = corpus_dir
        samples = {
            "alpha": synth_sample("alpha", "noun", n=18, seed=1),
            "gamma": synth_sample("gamma", "noun", n=20, seed=3),
            "beta": synth_sample("beta", "verb", n=16, seed=2),
        }
        save_corpus(samples["gamma"], base / "gamma.jsonl")
        paths = {w: str(base / f"{w}.jsonl") for w in samples}

        def failing_for(original, n, size):
            def wrapper(data, *args, **kwargs):
                if size(data) == n:
                    raise RuntimeError("broken")
                return original(data, *args, **kwargs)

            return wrapper

        # gamma's mcquitty cell and beta's em cell fail: the noun rollup of
        # A/mcquitty has one word and the verb rollup of A/em has none
        monkeypatch.setattr(agglom, "mcquitty", failing_for(agglom.mcquitty, 20, lambda d: d.n))
        monkeypatch.setattr(em, "fit", failing_for(em.fit, 16, lambda m: m.n))
        outdir = tmp_path / "out"
        config = make_config(paths, outdir, algorithms=("mcquitty", "em"), em_max_iter=50)
        assert run(config) == 1

        columns = ["A/mcquitty", "A/em"]
        means = {c: {} for c in columns}
        for row in (outdir / "aggregates.csv").read_text().split()[1:]:
            word, set_id, alg, _, mean, _ = row.split(",")
            means[f"{set_id}/{alg}"][word] = float(mean)
        assert set(means["A/mcquitty"]) == {"alpha", "beta"}
        assert set(means["A/em"]) == {"alpha", "gamma"}
        means["Maj"] = {w: majority_classifier(sample)[1] for w, sample in samples.items()}

        lines = (outdir / "summary.txt").read_text().split("\n")
        table = {line.split()[0]: line.split()[1:] for line in lines[1 : lines.index("")]}
        assert lines[0].split()[1:] == ["Maj"] + columns
        categories = {w: sample.category for w, sample in samples.items()}
        expected = {"noun": [], "verb": [], "overall": []}
        for column in ["Maj"] + columns:
            cat_means, overall = category_rollup(means[column], categories)
            for cat in ("noun", "verb"):
                expected[cat].append(f"{cat_means[cat]:.3f}".lstrip("0") if cat in cat_means else "-")
            expected["overall"].append(f"{overall:.3f}".lstrip("0"))
        assert {row: table[row] for row in expected} == expected
        assert expected["verb"][2] == "-"
        assert table["gamma"][1] == table["beta"][2] == "FAILED"

    def test_confusion_file_for_designated_trial(self, corpus_dir, tmp_path):
        _, paths = corpus_dir
        outdir = tmp_path / "out"
        run(make_config({"alpha": paths["alpha"]}, outdir, trials=3, report_trial=2))
        text = (outdir / "confusion" / "alpha_A_mcquitty.txt").read_text()
        assert "mcquitty -" in text and "correct" in text
        assert "discovered" in text
