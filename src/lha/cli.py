"""Command-line interface: embed, align-docs, align-sents, eval, run."""

from __future__ import annotations

import logging
import sys

import click

from . import __version__
from .corpus import InputError, corpus_index, load_abbreviations, load_corpus
from .corpus import load_stopwords, naming
from .doc_align import read_doc_pairs
from .embeddings import embed_corpus, load_embeddings, load_word_vectors, save_embeddings
from .evaluate import (
    LABELS,
    eval_document_alignment,
    eval_joint,
    eval_sentence_alignment,
    load_eval_dataset,
    noise_pools,
    sample_docs,
)
from .metrics import SCORERS, TABLE_SCORERS, make_scorer
from .pipeline import PipelineConfig, PipelineStageError, align_doc_files, run_pipeline
from .pipeline import align_sentence_files, validate_config, value_findings
from .sent_align import FilterPolicy, load_exclusion_set

logger = logging.getLogger("lha")


class _Command(click.Command):
    """A command whose malformed input, an ``InputError`` raised by any call
    it makes, is a usage error (exit 2) with the error's message."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except InputError as e:
            raise click.UsageError(str(e), ctx) from e


class _Group(click.Group):
    command_class = _Command
    group_class = type  # subgroups, and so their commands, are made alike


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="lha")
@click.option("--quiet", is_flag=True, help="Only warnings and errors on stderr.")
def main(quiet: bool) -> None:
    """Extract pseudo-parallel sentence pairs from comparable corpora."""
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )


def _embedded(path, level, *corpora) -> list:
    """Each of ``corpora``'s unit rows, read from the embedding file at
    ``path`` as `lha run` reads it: by ``embed_corpus``, which puts them in
    corpus order, unit-normalizes them and checks each uid's row and the
    corpus split. An error names the file."""
    matrix = load_embeddings(path)
    with naming(path):
        return [embed_corpus(docs, level, matrix) for docs in corpora]


def _parse_strategy(strategy: str, vectors: str | None):
    """Resolve --strategy avg|precomputed:<path> into a function that embeds
    the parsed documents at a level, from the word-vector table or from the
    matrix."""
    if strategy == "avg":
        if not vectors:
            raise click.UsageError("--strategy avg requires --vectors")
        return lambda docs, level: embed_corpus(docs, level, _vector_table(vectors, True, docs))
    if strategy.startswith("precomputed:"):
        path = strategy.split(":", 1)[1]
        if not path:
            raise click.UsageError("--strategy precomputed:<path> needs a path")
        return lambda docs, level: _embedded(path, level, docs)[0]
    raise click.UsageError(f"unknown strategy {strategy!r}; use avg or precomputed:<path>")


@main.command()
@click.option("--corpus", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--level", type=click.Choice(["doc", "sent"]), required=True)
@click.option("--strategy", default="avg", show_default=True,
              help="avg or precomputed:<embedding file>")
@click.option("--vectors", type=click.Path(exists=True, dir_okay=False),
              help="Word-vector file for the avg strategy.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--stopwords", type=click.Path(exists=True, dir_okay=False))
@click.option("--abbreviations", type=click.Path(exists=True, dir_okay=False))
def embed(corpus, level, strategy, vectors, out, stopwords, abbreviations) -> None:
    """Embed a corpus at document or sentence level into a binary file."""
    embed_docs = _parse_strategy(strategy, vectors)
    docs = list(load_corpus(
        corpus,
        stopwords=load_stopwords(stopwords),
        abbreviations=load_abbreviations(abbreviations),
    ))
    matrix = embed_docs(docs, "document" if level == "doc" else "sentence")
    save_embeddings(matrix, out)
    logger.info("wrote %d x %d embeddings to %s", matrix.count, matrix.dim, out)


def _check_options(scorer: str, **options) -> None:
    """``validate_config``'s rules for options given as config
    key=(option, value); an error is a usage error naming the option."""
    for level, message in value_findings(options, scorer):
        if level == "error":
            raise click.UsageError(message)
        logger.warning("%s", message)


@main.command("align-docs")
@click.option("--source-embeddings", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--target-embeddings", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--k", default=5, show_default=True, type=int)
@click.option("--theta-d", default=0.5, show_default=True, type=float)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def align_docs(source_embeddings, target_embeddings, k, theta_d, out) -> None:
    """Stage 1: pair source documents with nearest target documents."""
    _check_options("cosine", k_doc=("--k", k), theta_d=("--theta-d", theta_d))
    n = align_doc_files(source_embeddings, target_embeddings, k, theta_d, out)
    logger.info("wrote %d document pairs to %s", n, out)


def _vector_table(vectors: str | None, read: bool, *corpora):
    """The --vectors table when the option is given and ``read``, that is
    when the chosen scorer or embedder reads it; else None, unread. It holds
    the words of the documents of ``corpora``, the only ones looked up."""
    if not (vectors and read):
        return None
    words = {t.normalized for docs in corpora for doc in docs for t in doc.tokens()}
    return load_word_vectors(vectors, words)


@main.command("align-sents")
@click.option("--doc-pairs", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--source-corpus", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--target-corpus", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--scorer", default="cosine", show_default=True,
              type=click.Choice(SCORERS))
@click.option("--vectors", type=click.Path(exists=True, dir_okay=False))
@click.option("--source-sent-embeddings", type=click.Path(exists=True, dir_okay=False))
@click.option("--target-sent-embeddings", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", default=5, show_default=True, type=int)
@click.option("--theta-s", required=True, type=float)
@click.option("--min-overlap", default=0.4, show_default=True, type=float)
@click.option("--max-len-ratio", default=1.5, show_default=True, type=float)
@click.option("--exclude", type=click.Path(exists=True, dir_okay=False),
              help="TSV of test-set pairs to exclude.")
@click.option("--filter-stage", default="group", show_default=True,
              type=click.Choice(["group", "pair"]))
@click.option("--bm25-k1", default=1.2, show_default=True, type=float)
@click.option("--bm25-b", default=0.75, show_default=True, type=float)
@click.option("--stopwords", type=click.Path(exists=True, dir_okay=False))
@click.option("--abbreviations", type=click.Path(exists=True, dir_okay=False),
              help="The list the sentence embeddings were split with.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--tsv-out", type=click.Path(dir_okay=False),
              help="Also write source<TAB>target text pairs.")
def align_sents(doc_pairs, source_corpus, target_corpus, scorer, vectors,
                source_sent_embeddings, target_sent_embeddings, k, theta_s,
                min_overlap, max_len_ratio, exclude, filter_stage,
                bm25_k1, bm25_b, stopwords, abbreviations, out, tsv_out) -> None:
    """Stage 2: align sentences within document pairs and filter groups."""
    _check_options(scorer, k_sent=("--k", k), theta_s=("--theta-s", theta_s),
                   min_overlap=("--min-overlap", min_overlap),
                   max_len_ratio=("--max-len-ratio", max_len_ratio))
    if bool(source_sent_embeddings) != bool(target_sent_embeddings):
        raise click.UsageError("give both --source- and --target-sent-embeddings")
    # The small files first, so that a malformed one fails before the vectors load.
    pairs = read_doc_pairs(doc_pairs)
    policy = FilterPolicy(min_overlap=min_overlap, max_len_ratio=max_len_ratio,
                          exclusion_set=load_exclusion_set(exclude) if exclude else frozenset(),
                          stage=filter_stage)
    stops = load_stopwords(stopwords)
    abbrevs = load_abbreviations(abbreviations)
    tokens = {}  # one Token per surface form, shared by both corpora
    src_docs = corpus_index(load_corpus(
        source_corpus, "src", stopwords=stops, abbreviations=abbrevs, memo=tokens))
    tgt_docs = corpus_index(load_corpus(
        target_corpus, "tgt", stopwords=stops, abbreviations=abbrevs, memo=tokens))
    table = _vector_table(vectors, scorer in TABLE_SCORERS
                          or (scorer == "cosine" and not source_sent_embeddings),
                          src_docs.values(), tgt_docs.values())
    inputs = {"table": table}
    if scorer == "cosine" and source_sent_embeddings:
        inputs["source"], = _embedded(source_sent_embeddings, "sentence", src_docs.values())
        inputs["target"], = _embedded(target_sent_embeddings, "sentence", tgt_docs.values())
    elif scorer == "cosine" and table is not None:
        # The unit rows `lha embed --level sent` writes and `lha run` scores.
        inputs["source"], inputs["target"] = (
            embed_corpus(docs.values(), "sentence", table) for docs in (src_docs, tgt_docs))
    align_sentence_files(pairs, src_docs, tgt_docs, scorer, inputs, k, theta_s, policy,
                         bm25_k1, bm25_b, out, tsv_out)


@main.group("eval")
def eval_group() -> None:
    """Evaluation protocols against the labelled dataset."""


def _echo_report(report, include_timing: bool) -> None:
    click.echo(report.to_json(include_timing=include_timing))
    click.echo(report.table(), err=True)


def _check_ids(flag, src_docs, tgt_docs, level) -> None:
    """The file of an eval embedding flag holds one matrix for both sides,
    with one row per unit id, so a source and a target unit that share an
    id cannot both be read from it. That is a usage error."""

    def unit_ids(docs):
        if level == "document":
            return [d.doc_id for d in docs]
        return [s.uid for d in docs for s in d.sentences]

    target_ids = set(unit_ids(tgt_docs))
    shared = next((uid for uid in unit_ids(src_docs) if uid in target_ids), None)
    if shared is not None:
        raise click.UsageError(
            f"{flag} holds one matrix for both sides, but a source and a target "
            f"{level} share the unit id {shared!r}"
        )


def _doc_embedder(path, table, src_docs, tgt_docs):
    """The documents' rows from the --doc-embeddings matrix, or else the
    --vectors table, to embed them from; None when neither is given."""
    if not path:
        return table
    _check_ids("--doc-embeddings", src_docs, tgt_docs, "document")
    return _embedded(path, "document", [*src_docs, *tgt_docs])[0]


def _sentence_matrices(path, table, src_docs, tgt_docs) -> dict:
    """The cosine scorer's ``source``/``target`` sentence rows, as `lha run`
    scores them: read from the one --sent-embeddings matrix, or else averaged
    from the --vectors table; empty when neither is given."""
    if path:
        _check_ids("--sent-embeddings", src_docs, tgt_docs, "sentence")
        rows = _embedded(path, "sentence", src_docs, tgt_docs)
    elif table is not None:
        rows = [embed_corpus(docs, "sentence", table) for docs in (src_docs, tgt_docs)]
    else:
        return {}
    return dict(zip(("source", "target"), rows))


def _all_docs(dataset):
    """(source, target) documents an eval dataset can score: the annotated
    articles and the noise pools the protocols sample from."""
    src_noise, tgt_noise = noise_pools(dataset)
    return [*dataset.src_docs.values(), *src_noise], [*dataset.tgt_docs.values(), *tgt_noise]


def _parse_labels(ctx, param, value: str) -> tuple[str, ...]:
    labels = tuple(value.split(","))
    unknown = [label for label in labels if label not in LABELS]
    if unknown:
        raise click.BadParameter(
            f"unknown label(s) {', '.join(map(repr, unknown))}; "
            f"choose from {', '.join(LABELS)}"
        )
    return labels


_positive_labels_option = click.option(
    "--positive-labels", default="good", show_default=True, callback=_parse_labels,
    help="Comma-separated labels treated as positive.",
)


def _check_noise(dataset, n_noise: int) -> None:
    """--n-noise must fit in both noise pools; checked before any scoring."""
    for side, pool in zip(("source", "target"), noise_pools(dataset)):
        if n_noise > len(pool):
            raise click.BadParameter(
                f"{n_noise} exceeds the {side} noise pool, which has "
                f"{len(pool)} eligible documents",
                param_hint="'--n-noise'",
            )


@eval_group.command("sent")
@click.option("--data-dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--scorer", default="cosine", show_default=True,
              type=click.Choice(SCORERS))
@click.option("--vectors", type=click.Path(exists=True, dir_okay=False))
@click.option("--sent-embeddings", type=click.Path(exists=True, dir_okay=False),
              help="Precomputed sentence embeddings covering both sides; "
              "source and target ids must differ.")
@click.option("--bm25-k1", default=1.2, show_default=True, type=float)
@click.option("--bm25-b", default=0.75, show_default=True, type=float)
@_positive_labels_option
@click.option("--include-timing", is_flag=True)
def eval_sent(data_dir, scorer, vectors, sent_embeddings, bm25_k1, bm25_b,
              positive_labels, include_timing) -> None:
    """Sentence retrieval inside the gold article pairs."""
    dataset = load_eval_dataset(data_dir)
    table = _vector_table(vectors, scorer in TABLE_SCORERS
                          or (scorer == "cosine" and not sent_embeddings), *_all_docs(dataset))
    sentence_matrices = {}
    if scorer == "cosine":
        sentence_matrices = _sentence_matrices(
            sent_embeddings, table, dataset.src_docs.values(), dataset.tgt_docs.values()
        )
    scorer_obj = make_scorer(
        scorer,
        table=table,
        target_docs=dataset.tgt_docs.values(),
        k1=bm25_k1,
        b=bm25_b,
        **sentence_matrices,
    )
    report = eval_sentence_alignment(dataset, scorer_obj, positive_labels=positive_labels)
    _echo_report(report, include_timing)


@eval_group.command("doc")
@click.option("--data-dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--vectors", type=click.Path(exists=True, dir_okay=False))
@click.option("--doc-embeddings", type=click.Path(exists=True, dir_okay=False),
              help="Precomputed document embeddings covering both sides; "
              "source and target ids must differ.")
@click.option("--n-noise", default=1000, show_default=True, type=click.IntRange(min=0))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--include-timing", is_flag=True)
def eval_doc(data_dir, vectors, doc_embeddings, n_noise, seed, include_timing) -> None:
    """Document identification among noise articles."""
    dataset = load_eval_dataset(data_dir)
    _check_noise(dataset, n_noise)
    table = _vector_table(vectors, not doc_embeddings, *_all_docs(dataset))
    embedder = _doc_embedder(doc_embeddings, table, *sample_docs(dataset, n_noise, seed))
    if embedder is None:
        raise click.UsageError("needs --vectors or --doc-embeddings")
    report = eval_document_alignment(dataset, embedder=embedder, n_noise=n_noise, seed=seed)
    _echo_report(report, include_timing)


@eval_group.command("joint")
@click.option("--data-dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--mode", required=True, type=click.Choice(["lha", "global"]))
@click.option("--vectors", type=click.Path(exists=True, dir_okay=False))
@click.option("--doc-embeddings", type=click.Path(exists=True, dir_okay=False))
@click.option("--sent-embeddings", type=click.Path(exists=True, dir_okay=False))
@click.option("--k-doc", default=5, show_default=True, type=int)
@click.option("--theta-d", default=0.5, show_default=True, type=float)
@click.option("--rescore", default="none", show_default=True,
              type=click.Choice(["none", "wmd", "rwmd"]))
@click.option("--rescore-top", default=50, show_default=True, type=click.IntRange(min=1))
@click.option("--global-top", default=50, show_default=True, type=click.IntRange(min=1))
@click.option("--n-noise", default=1000, show_default=True, type=click.IntRange(min=0))
@click.option("--seed", default=0, show_default=True, type=int)
@_positive_labels_option
@click.option("--include-timing", is_flag=True)
def eval_joint_cmd(data_dir, mode, vectors, doc_embeddings, sent_embeddings,
                   k_doc, theta_d, rescore, rescore_top, global_top, n_noise,
                   seed, positive_labels, include_timing) -> None:
    """Hierarchical retrieval vs flat dataset-wide retrieval."""
    _check_options("cosine", k_doc=("--k-doc", k_doc), theta_d=("--theta-d", theta_d))
    dataset = load_eval_dataset(data_dir)
    _check_noise(dataset, n_noise)
    table = _vector_table(vectors, not sent_embeddings or rescore != "none"
                          or (mode == "lha" and not doc_embeddings), *_all_docs(dataset))
    docs = sample_docs(dataset, n_noise, seed)  # the only articles eval_joint reads
    sent_scorer = make_scorer("cosine", **_sentence_matrices(sent_embeddings, table, *docs))
    doc_embedder = _doc_embedder(doc_embeddings, table, *docs) if mode == "lha" else None
    rescorer = None if rescore == "none" else make_scorer(rescore, table=table)
    report = eval_joint(
        mode,
        dataset,
        sent_scorer,
        doc_embedder=doc_embedder,
        k_doc=k_doc,
        theta_d=theta_d,
        n_noise=n_noise,
        seed=seed,
        rescorer=rescorer,
        rescore_top=rescore_top,
        global_top=global_top,
        positive_labels=positive_labels,
    )
    _echo_report(report, include_timing)


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
              help="Override a config key.")
def run(config_path, overrides) -> None:
    """Run the full pipeline from a JSON config file."""
    config = PipelineConfig.from_file(config_path).with_overrides(overrides)
    try:
        summary = run_pipeline(config)
    except (ValueError, PipelineStageError) as e:
        raise click.ClickException(str(e)) from e
    click.echo(summary.to_json())


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE")
def validate(config_path, overrides) -> None:
    """Validate a pipeline config; exit non-zero on errors."""
    config = PipelineConfig.from_file(config_path).with_overrides(overrides)
    findings = validate_config(config)
    for level, message in findings:
        click.echo(f"{level}: {message}")
    if not findings:
        click.echo("ok")
    if any(level == "error" for level, _ in findings):
        sys.exit(1)


if __name__ == "__main__":
    main()
