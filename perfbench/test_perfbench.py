"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

import pathlib
import sys
import time
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _boom():
    time.sleep(0.02)
    raise RuntimeError("boom")


def test_raising_operation_is_counted_and_timed():
    op = SimpleNamespace(label="boom", call=_boom, check=lambda r: None, units=5, kind="x")
    stats, tracer = run.Stats(), tracing.Tracer()
    elapsed = run.run_op(op, stats, tracer)
    assert elapsed >= 0.02
    assert (stats.attempted, stats.failed, stats.units) == (1, 1, 0)
    assert stats.busy_s == elapsed and stats.by_kind["x"] == [elapsed, 0.0]
    assert stats.unexpected == ["boom: RuntimeError: boom"]
    (span,) = tracer.spans
    assert span[5] == 1 and span[2] - span[1] >= 20_000_000
    totals = tracing.layer_totals(tracer.spans, tracer.names)
    assert totals["op boom"]["raised"] == 1


def test_failed_check_and_known_failure_are_counted():
    wrong = SimpleNamespace(label="wrong", call=lambda: 1, check=lambda r: "bad output",
                            units=1, kind="")
    known = SimpleNamespace(label="old bug", call=_boom, check=lambda r: None, units=1, kind="")
    stats = run.Stats()
    run.run_pass([[wrong, known]], stats, None,
                 lambda label, err: label == "old bug" and err.startswith("RuntimeError"))
    assert (stats.attempted, stats.failed) == (2, 2)
    assert stats.unexpected == ["wrong: bad output"]
    assert stats.known == {"old bug": "RuntimeError: boom"}


def test_self_time_on_nested_fake_spans():
    # [name, start, end, parent, op, raised]; siblings 1 and 2 overlap and
    # span 4 runs past its parent's end, so coverage is a clipped union
    spans = [[0, 0, 100, -1, 1, 0],
             [1, 10, 40, 0, 1, 0],
             [1, 30, 60, 0, 1, 0],
             [2, 15, 25, 1, 1, 0],
             [2, 90, 120, 0, 1, 0]]
    totals = tracing.layer_totals(spans, ["a", "b", "c"])
    assert totals["a"] == {"calls": 1, "raised": 0, "total_ns": 100, "self_ns": 40}
    assert totals["b"] == {"calls": 2, "raised": 0, "total_ns": 60, "self_ns": 50}
    assert totals["c"] == {"calls": 2, "raised": 0, "total_ns": 40, "self_ns": 40}


def test_wrapped_calls_nest_with_a_fake_clock():
    ticks = iter([0, 10, 30, 100])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: 7)
    outer = tracer.wrap("outer", lambda: inner() + 1)
    assert outer() == 8
    totals = tracing.layer_totals(tracer.spans, tracer.names)
    assert totals["outer"]["self_ns"] == 80 and totals["inner"]["self_ns"] == 20
    assert tracer.spans[1][3] == 0


def test_install_rebinds_aliases_and_uninstall_restores():
    from torsiongeo import cli, frame_algebra, invariant_geometry
    original = invariant_geometry.bianchi_report
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.bianchi_report is invariant_geometry.bianchi_report is not original
        frame_algebra.zero_form(3, 2)
    finally:
        tracer.uninstall()
    assert cli.bianchi_report is invariant_geometry.bianchi_report is original
    assert tracer.names == ["frame_algebra.FrameTensor"]
    assert tracer.counters == {"frame_algebra.FrameTensor.elements": 9}


def _inputs(build, seed, workdir):
    workdir.mkdir()
    rounds, _ = build(seed, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return [[op.label for op in ops] for ops in rounds], files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    build = workloads.WORKLOADS[name]
    first = _inputs(build, 7, tmp_path / "a")
    assert first == _inputs(build, 7, tmp_path / "b")
    assert first[1] and first != _inputs(build, 8, tmp_path / "c")
