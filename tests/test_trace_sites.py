"""The benchmark's trace hooks still reach every layer.

``perfbench/layers.py`` wraps readmit's functions at the module attributes
their callers look them up through. A renamed function, or a call that no
longer goes through one of those attributes, would leave its layer without
spans and zero its ``--trace 1`` metrics without failing the benchmark, so
a tiny episodes -> evaluate run checks that every layer records a span,
and that each of the four claims file reads records its own.
"""

import importlib.util
from pathlib import Path

from readmit import pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

CONFIG = {
    "seed": 11,
    "fold_count": 2,
    "generator": {
        "n_users": 60,
        "readmission_fraction": 0.3,
        "mean_admissions_per_user": 1.5,
        "signals": [{"kind": "comorbidity", "value": "4280", "strength": 3.0}],
    },
    "rf_grid": {"ntree": [4], "mtry": [8], "nodesize": [3], "maxnodes": [16]},
    "svm_c_grid": [0.1],
}


def test_every_layer_records_a_span(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))   # layers.py imports spans
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    from spans import Tracer

    cfg = pipeline.RunConfig.from_dict(CONFIG)
    pipeline.stage_generate(cfg, tmp_path)
    tracer = Tracer()
    with tracer.installed(layers.sites()):   # stages looked up as the benchmark does
        for stage in ("episodes", "features", "train", "evaluate"):
            getattr(pipeline, f"stage_{stage}")(cfg, tmp_path)
    recorded = {span.name.split(".", 1)[0] for span in tracer.spans}
    assert [layer for layer in layers.LAYERS if layer not in recorded] == []
    # Each claims file read is one span under its stage: a parser call that
    # bypassed the pipeline module's attribute would go missing here.
    parses = [tracer.spans[span.parent].name for span in tracer.spans
              if span.name == "claims.parse"]
    assert parses == ["pipeline.stage_episodes"] + ["pipeline.stage_features"] * 3
