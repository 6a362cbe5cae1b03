"""Command-line interface.

Subcommands expose the pipeline stages on files: ``extract`` (feature
matrix), ``dissim`` (mismatch matrix), ``cluster`` (Ward/McQuitty),
``em`` (mixture fit), ``eval`` (score a confusion matrix), ``dim``
(feature-space sizes) and ``run`` (the full experiment grid from a
config file).
"""

import argparse
import sys

import numpy as np

from . import agglom, dissim, em
from .corpus import CATEGORIES, CorpusError, load_corpus
from .evaluate import ConfusionMatrix, best_mapping, format_confusion
from .features import FEATURE_SETS, build_schema, dimensionality, extract
from .features import format_matrix, load_stopwords
from .runner import AGGLOMERATIVE, load_config, run


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_matrix_for(args):
    sample = load_corpus(args.corpus)
    stop = load_stopwords(args.stopwords) if args.stopwords else None
    schema = build_schema(sample, args.set, stop)
    return sample, extract(sample, schema)


def cmd_extract(args) -> int:
    _, matrix = _load_matrix_for(args)
    _write(format_matrix(matrix), args.output)
    return 0


def cmd_dissim(args) -> int:
    _, matrix = _load_matrix_for(args)
    _write(dissim.format_triangle(dissim.build(matrix)), args.output)
    return 0


def cmd_cluster(args) -> int:
    if args.matrix:
        with open(args.matrix, encoding="utf-8") as fh:
            d = dissim.parse_matrix_text(fh.read())
        if args.k is None:
            raise ValueError("--k is required with --matrix")
        k = args.k
    else:
        sample, matrix = _load_matrix_for(args)
        d = dissim.build(matrix)
        k = args.k if args.k is not None else sample.k
    if args.alg == "ward":
        result = agglom.ward(dissim.row_vectors(d), k, args.seed)
    else:
        result = agglom.mcquitty(d, k, args.seed)
    text = " ".join(str(int(c)) for c in result.assignment) + "\n"
    if args.trace:
        text += agglom.merge_trace(result)
    _write(text, args.output)
    return 0


def cmd_em(args) -> int:
    sample, matrix = _load_matrix_for(args)
    k = args.k if args.k is not None else sample.k
    result = em.fit(matrix, k, args.seed, args.max_iter, args.tol)
    _write(em.format_result(result, matrix.schema), args.output)
    return 0


def _read_confusion(path) -> ConfusionMatrix:
    rows = []
    labels = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split()
            if not tokens:
                continue
            if tokens[0].lstrip("-").isdigit():
                label = f"sense-{len(rows)}"
            else:
                label, tokens = tokens[0], tokens[1:]
            labels.append(label)
            rows.append([int(t) for t in tokens])
    if not rows or len({len(r) for r in rows}) != 1:
        raise ValueError("confusion matrix file must have equal-length count rows")
    counts = np.array(rows)
    clusters = tuple(str(c) for c in range(counts.shape[1]))
    return ConfusionMatrix(tuple(labels), clusters, counts)


def cmd_eval(args) -> int:
    cm = _read_confusion(args.matrix)
    mapping, _ = best_mapping(cm)
    _write(format_confusion(cm, mapping, args.name), args.output)
    return 0


def cmd_dim(args) -> int:
    if args.set and args.category:
        print(dimensionality(args.set, args.category))
    elif args.set or args.category:
        raise ValueError("dim needs both --set and --category, or neither")
    else:
        print("set  category   dimensionality")
        for set_id in FEATURE_SETS:
            for category in CATEGORIES:
                print(f"{set_id}    {category:<10} {dimensionality(set_id, category)}")
    return 0


def cmd_run(args) -> int:
    config = load_config(args.config)
    if args.dump_clusters:
        config.dump_clusters = True
    if args.output:
        config.output_dir = args.output
    return run(config, jobs=args.jobs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensecluster",
        description="Discriminate senses of ambiguous words in untagged text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def corpus_opts(p):
        p.add_argument("--corpus", required=True, help="corpus file (JSON lines)")
        p.add_argument("--set", required=True, choices=tuple(FEATURE_SETS), help="feature set")
        p.add_argument("--stopwords", help="stopword list, one word per line")
        p.add_argument("-o", "--output", help="write to file instead of stdout")

    p = sub.add_parser("extract", help="extract a feature matrix")
    corpus_opts(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("dissim", help="build the mismatch dissimilarity matrix")
    corpus_opts(p)
    p.set_defaults(func=cmd_dissim)

    p = sub.add_parser("cluster", help="agglomerative clustering (Ward or McQuitty)")
    p.add_argument("--alg", required=True, choices=AGGLOMERATIVE)
    p.add_argument("--k", type=int, help="number of clusters (default: sense count)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--matrix", help="dissimilarity matrix file instead of a corpus")
    p.add_argument("--corpus")
    p.add_argument("--set", choices=tuple(FEATURE_SETS))
    p.add_argument("--stopwords")
    p.add_argument("--trace", action="store_true", help="append the merge trace")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("em", help="fit the Naive Bayes mixture by EM")
    corpus_opts(p)
    p.add_argument("--k", type=int, help="number of components (default: sense count)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=em.DEFAULT_MAX_ITER)
    p.add_argument("--tol", type=float, default=em.DEFAULT_TOL)
    p.set_defaults(func=cmd_em)

    p = sub.add_parser("eval", help="best mapping and caption for a confusion matrix file")
    p.add_argument("--matrix", required=True, help="counts, one gold sense per row")
    p.add_argument("--name", default="best mapping", help="algorithm name for the caption")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("dim", help="feature-space dimensionality")
    p.add_argument("--set", choices=tuple(FEATURE_SETS))
    p.add_argument("--category", choices=CATEGORIES)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("run", help="run the experiment grid from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("-j", "--jobs", type=int, default=1)
    p.add_argument("--dump-clusters", action="store_true",
                   help="also write raw (unmapped) cluster assignments")
    p.add_argument("-o", "--output", help="override the config output directory")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "cluster" and not args.matrix:
        if not (args.corpus and args.set):
            print("error: cluster needs --matrix or both --corpus and --set", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (CorpusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
