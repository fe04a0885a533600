"""The benchmark's in-process pipeline (bench/pipeline.py) runs against the
package as it is.

The benchmark passes the package's own types between public calls
(token lists, one-row document matrices, (matrix, label) training
pairs), and only a pass that runs shows whether they still fit.  Tiny
generated corpora keep these tests fast; the CLI runs through `main` in
this process, never as a subprocess.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

from tweetiment.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402  (a bench module, importable once BENCH is on the path)
import pipeline  # noqa: E402

# per-layer metrics that bench/run.py sets itself rather than layer_metrics
RUNNER_METRICS = {"cli.import_s", "normalize.distinct_word_share", "trace.overhead_s"}


@pytest.fixture(params=["nb_zipf", "maxent_iis", "gis_longtail"])
def workload_files(request, tmp_path):
    workload = dataclasses.replace(
        corpus.WORKLOADS[request.param], n_train=300, n_eval=100, n_predict=100
    )
    return workload, corpus.write_files(corpus.generate(workload, 5), tmp_path)


def without_trained_at(path) -> list:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [line for line in lines if not line.startswith("meta\ttrained_at\t")]


def test_untraced_pass_matches_the_cli(workload_files, tmp_path):
    workload, paths = workload_files
    outcome = pipeline.run_pass(pipeline.Untraced(), workload, paths, tmp_path, "untraced")

    model, predictions = tmp_path / "cli-model.txt", tmp_path / "cli-predictions.csv"
    assert main(["train", paths["train"], str(model), *workload.train_args]) == 0
    assert main(["predict", str(model), paths["predict"], str(predictions)]) == 0
    assert without_trained_at(outcome.model_path) == without_trained_at(model)
    rows = predictions.read_text(encoding="utf-8").splitlines()[1:]  # tweet_id,sentiment
    cli_labels = [int(row.split(",")[1]) for row in rows]
    assert cli_labels == [int(label) for label in outcome.predict_labels]
    assert len(outcome.predict_docs) == len(outcome.predict_tweets) == workload.n_predict
    assert 0 < outcome.accuracy <= 1


def test_layer_metrics_of_a_traced_pass(workload_files, tmp_path):
    workload, paths = workload_files
    tracer = pipeline.Tracer("test")
    outcome = pipeline.run_pass(tracer, workload, paths, tmp_path, "traced")
    metrics = pipeline.layer_metrics(tracer.spans, outcome)

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(metrics) == {m["name"] for m in spec["per_layer"]} - RUNNER_METRICS
    assert all(math.isfinite(value) for value in metrics.values())
    assert metrics["features.vectorize_us_per_doc"] > 0
    vocab = outcome.artifact.vocabulary
    assert metrics["features.empty_docs"] == sum(
        1
        for tokens in outcome.predict_tweets
        if not any(word in vocab.unigram_index for word in tokens)
        and not any(pair in vocab.bigram_index for pair in zip(tokens, tokens[1:]))
    )
    if workload.model == "maxent":
        assert metrics["models.maxent.iterations"] == workload.iterations
        assert metrics["models.maxent.predict_us_per_doc"] > 0
    else:
        assert metrics["models.naive_bayes.predict_us_per_doc"] > 0
