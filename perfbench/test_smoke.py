"""Smoke test for the certification benchmark on tiny instances.

Run from the root of the repository:

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "tiny": run.Workload(
        certify=(
            run._perm(3),
            run._perm(3, from_json=True),
            run._huffman("huffman_quadratic", 4),
            run._mgon(4),
        ),
        stats=(run.Stats("a_permutahedron", 4),),
    )
}


def _run(capsys, trace, seed=run.DIGEST_SEED):
    argv = ["--workload", "tiny", "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, workloads=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(capsys, trace, section):
    lines, result = _run(capsys, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = {line.split()[0]: line.split()[2] for line in lines if len(line.split()) >= 3}
    for name, unit in dict(want, failed_ratio="ratio").items():
        assert printed.get(name) == unit, name


def test_json_formulation_takes_the_lp_fallback(capsys):
    _, result = _run(capsys, 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["lp.fallback_calls"] == 6  # the six vertices of perm n=3
    assert 0 < metrics["polyhedra.witness_hit_ratio"] < 1


def test_every_workload_has_a_why():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOADS)
    assert all(w["why"] for w in BENCHMARK["workloads"])


def test_held_out_seed_requires_exact_passes(capsys):
    _, result = _run(capsys, 0, seed=11)
    assert result["correct"] is True and result["failed"] == 0


def test_digest_mismatch_is_a_failed_check(capsys, monkeypatch, tmp_path):
    digests = json.loads(run.DIGESTS.read_text())
    digests["a_permutahedron n=3"] = "0" * 64
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(digests))
    monkeypatch.setattr(run, "DIGESTS", path)
    lines, result = _run(capsys, 0)
    assert result["correct"] is False and result["failed"] == 2
    assert any("a_permutahedron n=3: report digest" in line for line in lines)


def test_untraced_run_installs_no_wrappers(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("wrappers installed in an untraced run")

    monkeypatch.setattr(run, "installed", refuse)
    _, result = _run(capsys, 0)
    assert result["correct"] is True


def test_traced_run_restores_every_wrapped_function(capsys):
    _run(capsys, 1)
    import reflekt

    for module, owner, attr, _ in run.SPANS:
        target = getattr(reflekt, module)
        target = getattr(target, owner) if owner else target
        assert not hasattr(getattr(target, attr), "__wrapped__"), (module, attr)


def _ticks(*values):
    it = iter(values)
    return lambda: next(it)


def test_nested_spans_are_subtracted_once():
    tracer = run.Tracer(clock=_ticks(0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0))
    with tracer.span("outer"):
        with tracer.span("middle"):
            with tracer.span("inner"):
                pass
        with tracer.span("inner"):
            pass
    assert tracer.total[("outer", "outer")] == 10.0
    assert tracer.self_time[("outer", "outer")] == 6.0
    assert tracer.self_time[("outer", "middle")] == 2.0
    assert tracer.self_time[("outer", "inner")] == 2.0
    assert tracer.calls[("outer", "inner")] == 2


def test_negative_self_time_fails_the_trace():
    tracer = run.Tracer(clock=_ticks(0.0, 0.0, 5.0, 3.0))
    with pytest.raises(run.TraceError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass


def test_rescaler_scales_by_the_references_around_each_block():
    rescale = run.Rescaler(reference=_ticks(0.02, 0.04, 0.06))
    assert rescale(1.0) == pytest.approx(run.REFERENCE_S / 0.03)
    assert rescale(2.0) == pytest.approx(2 * run.REFERENCE_S / 0.05)
    assert rescale.references == [0.02, 0.04, 0.06]


def test_short_calls_are_rescaled_as_one_block():
    rescale = run.Rescaler(reference=_ticks(0.03, 0.03))
    assert rescale.add(run.BLOCK_S / 4, last=False) == 0.0
    assert rescale.add(run.BLOCK_S / 4, last=True) == pytest.approx(run.BLOCK_S / 2)
    assert rescale.references == [0.03, 0.03]
