"""The benchmark's tracer wraps attrseq functions by module attribute name in
every benchmark run, traced or not, so a renamed or dropped name would fail
every run; this keeps those names in Tier-1."""

import importlib.util
from pathlib import Path

from attrseq import cli, data, encoder, episodes, gradients, training

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patch_points_exist_and_are_restored():
    modules = (cli, data, encoder, episodes, gradients, training)
    before = [dict(vars(m)) for m in modules]
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        patched = {(m.__name__, name) for m, snapshot in zip(modules, before)
                   for name, value in snapshot.items() if vars(m)[name] is not value}
    finally:
        tracer.uninstall()
    assert {("attrseq.cli", "encode"), ("attrseq.cli", "read_records"),
            ("attrseq.training", "pair_loss"), ("attrseq.episodes", "omega_forward")} <= patched
    assert len(patched) >= 20
    for m, snapshot in zip(modules, before):
        assert vars(m).keys() == snapshot.keys()
        assert [name for name, value in snapshot.items() if vars(m)[name] is not value] == []
