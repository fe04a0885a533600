"""Tests of the benchmark itself: generator, metric names, checks.

Run from the repository root with `python3 -m pytest bench`.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import run

BENCH = Path(__file__).resolve().parent
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def _tiny(name: str) -> corpus.Workload:
    return dataclasses.replace(corpus.WORKLOADS[name], n_train=600, n_eval=200, n_predict=200)


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_deterministic_per_seed(tmp_path):
    workload = _tiny("gis_longtail")
    outputs = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        directory = tmp_path / label
        directory.mkdir()
        corpus.write_files(corpus.generate(workload, seed), directory)
        outputs[label] = _files(directory)
    assert outputs["a"] == outputs["b"]
    assert outputs["a"]["train.csv"] != outputs["c"]["train.csv"]
    assert outputs["a"]["predict.csv"] != outputs["c"]["predict.csv"]


def test_pool_words_are_distinct_and_survive_normalization():
    from tweetiment.normalize import normalize_tweet

    words = [corpus.pool_word(rank) for rank in range(20000)]
    assert len(set(words)) == len(words)
    assert normalize_tweet(" ".join(words[::97])) == words[::97]


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    assert all(NAME_RE.match(name) for name in names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in corpus.WORKLOADS.items()
    }


@pytest.mark.parametrize("trace", [False, True], ids=["cli", "traced"])
@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_tiny_run_passes_every_check(tmp_path, name, trace):
    metrics, ledger, properties, spans, _ = run.run_workload(_tiny(name), 3, 0, trace, tmp_path)
    assert ledger.failures == []
    assert ledger.attempted > 0
    assert set(metrics) == set(run.PER_LAYER if trace else run.END_TO_END)
    assert set(properties) >= {"distinct_word_share", "distinct_bigrams", "mean_words"}
    if trace:
        names = {span["name"] for span in spans}
        assert any(n.startswith("models.maxent") for n in names) == (name != "nb_zipf")
        assert all(span["run_id"].startswith(f"{name}-3/") for span in spans)


def test_planted_wrong_prediction_fails_the_check(tmp_path, monkeypatch):
    real_cycle = run.cli_cycle

    def cycle_with_one_label_flipped(*args):
        cycle = real_cycle(*args)
        lines = cycle.predictions.read_text().splitlines()
        tweet_id, label = lines[1].split(",")
        lines[1] = f"{tweet_id},{1 - int(label)}"
        cycle.predictions.write_text("\n".join(lines) + "\n")
        return cycle

    monkeypatch.setattr(run, "cli_cycle", cycle_with_one_label_flipped)
    _, ledger, _, _, _ = run.run_workload(_tiny("nb_zipf"), 3, 0, False, tmp_path)
    assert ledger.failures
    assert all("labels differ from artifact_predict" in f for f in ledger.failures)


def test_model_comparison_ignores_only_the_training_time():
    model = "tweetiment-model v1 maxent\nmeta\tn_docs\t3\nmeta\ttrained_at\t{}\nend\n"
    assert run.same_model(model.format("2026-01-01"), model.format("2026-02-02"))
    assert not run.same_model(model.format("x"), model.format("x").replace("3", "4"))
    assert not run.same_model(model, None)


def test_host_adjustment_scales_by_the_mean_probe():
    probes = (run._PROBE_REFERENCE_S, 3 * run._PROBE_REFERENCE_S)
    call = run.Call(argv=[], code=0, wall_s=3.0, peak_rss_mib=0.0, output="", probes=probes)
    assert call.adjusted_s == pytest.approx(1.5)


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench" / path.name)
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "nb_zipf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
