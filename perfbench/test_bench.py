"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import cmreg.cli  # noqa: E402
import cmreg.groebner  # noqa: E402
import cmreg.regularity  # noqa: E402
import expect  # noqa: E402
import pytest  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

CURVE = """\
ring: x1 x2 x3 x4
field: QQ
ideal:
x1*x2 - x3*x4
x1*x3^2 - x2^3
x1^2*x3 - x2^2*x4
x1^3 - x2*x4^2
"""


def _texts_in_fresh_process(hash_seed):
    code = "import json, workloads; print(json.dumps({w: workloads.jobs(w, 11) for w in workloads.WORKLOADS}))"
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_same_seed_gives_the_same_files():
    assert _texts_in_fresh_process(1) == _texts_in_fresh_process(2)
    for w in workloads.WORKLOADS:
        assert [j["text"] for j in workloads.jobs(w, 3)] != [j["text"] for j in workloads.jobs(w, 4)]


def test_dense_workloads_share_their_integer_ideals():
    qq, gfp = workloads.jobs("dense-qq", 5), workloads.jobs("dense-gfp", 5)
    assert [j["text"].replace("field: QQ", "field: " + workloads.GFP) for j in qq] == [j["text"] for j in gfp]


def _run(path):
    out, err = io.StringIO(), io.StringIO()
    assert cmreg.cli.run(["compute", "--input", path, "--json", "--seed", "0"], out, err) == 0
    return out.getvalue()


def test_traced_quartic_curve(tmp_path):
    path = str(tmp_path / "curve.ideal")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CURVE)
    original = cmreg.groebner.reduced_groebner_basis
    plain = _run(path)
    with Tracer() as tracer:
        # the wrapper replaces every binding of the original, imported ones too
        assert cmreg.regularity.reduced_groebner_basis is not original
        assert cmreg.regularity.reduced_groebner_basis is cmreg.groebner.reduced_groebner_basis
        assert cmreg.cli.reduced_groebner_basis is cmreg.groebner.reduced_groebner_basis
        traced = _run(path)
    assert cmreg.groebner.reduced_groebner_basis is original
    assert cmreg.regularity.reduced_groebner_basis is original
    assert cmreg.cli.reduced_groebner_basis is original
    assert traced == plain
    assert len(json.loads(plain)["methods"]["c"]["initial_ideal"]) == 4

    m = {name: value for name, (value, _) in layer_metrics(tracer.take()).items()}
    assert m["regularity.c_passes"] == 1
    assert m["regularity.retries"] == 0
    assert m["groebner.basis_len"] == 4
    assert m["regularity.gin_draws"] == 0
    assert m["linalg.rank_calls"] == 0


def test_known_defect_jobs_keep_their_true_answers():
    jobs = {j["name"]: j for j in workloads.jobs("oracle", 0)}
    assert jobs["rp2-gf2"]["defect"] and jobs["dfam-1300"]["defect"]
    rp2 = expect.expected_answer(jobs["rp2-gf2"])
    assert (rp2["reg"], rp2["astar"], rp2["dim"]) == (3, 0, 3)
    d = expect.expected_answer(jobs["dfam-1300"])
    assert (d["reg"], d["astar"], d["dim"]) == (3 * 1300 - 2, 3 * 1300 - 3, 1)
    assert sum(1 for j in jobs.values() if j["defect"]) == 2


def test_a_wrong_partial_invariant_is_caught():
    right = {"reg": 3, "astar": 1, "dim": 2, "partial": expect.partial_from_c(["-inf", "-inf", 3], 2)}
    assert expect.answer_problem(right, dict(right)) is None
    wrong = dict(right, partial=expect.partial_from_c(["-inf", 2, 3], 2))
    assert "partial" in expect.answer_problem(right, wrong)


def test_hilbert_numerator():
    # ideals of k[x, y] whose quotients have a known Hilbert series
    assert expect.hilbert_numerator([]) == [1]
    assert expect.hilbert_numerator([(2, 0), (0, 3)]) == [1, 0, -1, -1, 0, 1]  # (1 - t^2)(1 - t^3)
    assert expect.hilbert_numerator([(1, 1)]) == [1, 0, -1]
    assert expect.hilbert_numerator([(1, 0), (0, 1)]) == [1, -2, 1]
    assert expect.hilbert_numerator([(2, 0), (1, 1), (0, 2)]) == [1, 0, -3, 2]  # (1 + 2t)(1 - t)^2


def test_complete_intersection_jobs_check_the_printed_ideal(tmp_path):
    job = workloads.jobs("dense-gfp", 2)[0]
    assert job["expect"] == "ci"
    want = expect.expected_answer(job)
    assert (want["reg"], want["astar"], want["dim"]) == (4, 3, 1)  # 4 quadrics in 5 variables
    path = str(tmp_path / "dense.ideal")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(job["text"])
    doc = json.loads(_run(path))
    assert expect.answer_problem(want, expect.job_answer(json.dumps(doc), "c")) is None
    # drop one generator of in(I): the invariants still read right, the
    # Hilbert numerator does not
    doc["methods"]["c"]["initial_ideal"].pop()
    assert "numerator" in expect.answer_problem(want, expect.job_answer(json.dumps(doc), "c"))


def test_a_missing_trace_target_stops_the_trace(monkeypatch):
    original = cmreg.groebner.reduced_groebner_basis
    monkeypatch.setitem(tracer.TARGETS, "groebner", ("cmreg.groebner", ("reduced_groebner_basis", "no_such_function")))
    with pytest.raises(RuntimeError, match="cmreg.groebner.no_such_function"):
        Tracer().install()
    assert cmreg.groebner.reduced_groebner_basis is original
