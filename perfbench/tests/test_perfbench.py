"""Fast checks of the benchmark itself, on smoke-size workloads.

Run from the checkout root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import ncats  # noqa: E402
import run as bench_run  # noqa: E402
import speed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from ncats import enumeration, structures  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(wl.WORKLOADS)


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_workloads_and_metrics_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tr.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_prints_every_metric(name, trace):
    out = last_json(bench("--workload", name, "--seed", "3", "--seconds", "0.2",
                          "--trace", str(trace), "--size", "smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_without_the_library_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


SEARCHES = ["monoid-search", "record-heavy", "interchange-search"]


def one_pass(name, seed, workdir, traced=False):
    """The tally, tracer and root span of one smoke-size setup plus pass."""
    work = wl.WORKLOADS[name]
    tally = wl.Tally()
    tracer = tr.Tracer()
    undo = tracer.install(ncats) if traced else (lambda: None)
    tally.tracer = tracer if traced else None
    try:
        with tracer.span(tr.BENCH) as root:
            run = wl.Run(workdir, bench_run.child_env(), seed, "smoke", tally)
            work.run_pass(run, work.setup(run))
    finally:
        undo()
    return tally, tracer, root.index


@pytest.mark.parametrize("name", SEARCHES)
def test_traced_and_untraced_counts_agree(name, tmp_path):
    plain = one_pass(name, 5, tmp_path)[0]
    traced = one_pass(name, 5, tmp_path, traced=True)[0]
    assert plain.failed == traced.failed == 0
    assert plain.counts == traced.counts


@pytest.mark.parametrize("name", SEARCHES)
def test_node_counts_repeat_for_a_seed_and_answers_do_not_depend_on_it(name, tmp_path):
    first, again, other = (one_pass(name, seed, tmp_path)[0].counts for seed in (1, 1, 2))
    assert first == again
    assert [c[:3] for c in first] == [c[:3] for c in other]


def test_self_times_sum_to_the_root_span(tmp_path):
    tally, tracer, root = one_pass("check-io", 2, tmp_path, traced=True)
    layers = tr.layer_metrics(tracer, root)
    partition = set(tr.SELF_METRIC.values())
    assert abs(sum(layers[m] for m in partition) - layers["trace.root_s"]) < 1e-9
    assert layers["structures.check_calls"] >= len(tally.check_ms)
    assert layers["structures.counterexamples"] >= wl.CheckIO.frozen["smoke"]["rewrites"]

    tally, tracer, root = one_pass("monoid-search", 2, tmp_path, traced=True)
    layers = tr.layer_metrics(tracer, root)
    assert abs(sum(layers[m] for m in partition) - layers["trace.root_s"]) < 1e-9
    assert layers["enumeration.nodes"] == tally.nodes
    assert layers["enumeration.records"] - layers["enumeration.canonical_calls"] \
        == layers["enumeration.rejected_at_record"]
    assert layers["enumeration.iso_classes"] == sum(c[2] for c in tally.counts)


def test_relabeling_is_an_isomorphism():
    import random
    from ncats.cobordism import build_cob_truncation

    S = build_cob_truncation(2)[1]
    perms = wl.random_perms(S.graph, random.Random(4))
    T = wl.relabel_structure(S, perms)
    assert structures.check_category(T).passed
    back = [[0] * len(p) for p in perms]
    for d, p in enumerate(perms):
        for i, new in enumerate(p):
            back[d][new] = i
    assert wl.relabel_structure(T, back) == S


def test_order_five_monoids_and_groups_match_oeis():
    """A058129(5) = 228 monoids and A000001(5) = 1 group, raw 4122 and 6,
    with the identity loop at index 0 (271,507 nodes each)."""
    G = wl.loops_graph(5)
    for flags, want in ((wl.MONOID, (4122, 228)), (wl.GROUP, (6, 1))):
        res = enumeration.enumerate_structures(G, enumeration.EnumSpec(flags=flags, limits=wl.EXACT))
        assert (res.exhausted, res.raw_count, res.iso_count, res.nodes) == (True, *want, 271507)


def test_host_speed_scales_to_the_reference_and_ends_its_child():
    assert speed.at_reference(2.0, speed.REFERENCE_S, speed.REFERENCE_S) == 2.0
    assert speed.at_reference(2.0, 2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S) == 1.0
    with speed.HostSpeed() as host:
        assert 0 < host.kernel_s() < 5
    assert host._proc.returncode == 0
