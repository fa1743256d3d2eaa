import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowdisc import coloring, maxflow, totalflow
from flowdisc.cli import main, summarize
from flowdisc.core import gen_random_instance, instance_from_json, instance_to_json
from flowdisc.util import ValidationError


def run(args):
    return main(args)


def test_gen_and_maxflow_roundtrip(tmp_path):
    inst_path = str(tmp_path / "inst.json")
    out_path = str(tmp_path / "res.json")
    assert run(["gen", "instance", "--n", "4", "--m", "2", "--seed", "3",
                "--out", inst_path]) == 0
    assert run(["maxflow", "--instance", inst_path, "--colorer", "greedy",
                "--out", out_path]) == 0
    data = json.loads(Path(out_path).read_text())
    assert set(data) == {"T_star", "assignment", "levels", "max_flow"}
    assert run(["check", "--instance", inst_path, "--result", out_path]) == 0


def test_totalflow_result_schema(tmp_path):
    inst_path = str(tmp_path / "inst.json")
    out_path = str(tmp_path / "tf.json")
    assert run(["gen", "instance", "--n", "3", "--m", "2", "--seed", "8",
                "--out", inst_path]) == 0
    assert run(["totalflow", "--instance", inst_path, "--colorer", "greedy",
                "--out", out_path]) == 0
    data = json.loads(Path(out_path).read_text())
    assert set(data) == {"lp_cost", "alpha_levels", "total_flow", "assignment"}
    assert run(["check", "--instance", inst_path, "--result", out_path]) == 0


def test_byte_identical_reruns(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (a, b):
        assert run(["gen", "instance", "--n", "5", "--m", "2", "--seed", "11",
                    "--out", path]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    ra, rb = str(tmp_path / "ra.json"), str(tmp_path / "rb.json")
    assert run(["maxflow", "--instance", a, "--colorer", "greedy", "--out", ra]) == 0
    assert run(["maxflow", "--instance", b, "--colorer", "greedy", "--out", rb]) == 0
    assert Path(ra).read_bytes() == Path(rb).read_bytes()


def test_color_subcommand(tmp_path):
    v_path = str(tmp_path / "v.json")
    c_path = str(tmp_path / "c.json")
    assert run(["gen", "vectors", "--n", "6", "--m", "2", "--seed", "2",
                "--out", v_path]) == 0
    assert run(["color", "--vectors", v_path, "--colorer", "brute",
                "--mode", "one-sided", "--out", c_path]) == 0
    data = json.loads(Path(c_path).read_text())
    assert "signs" in data and "discrepancy" in data
    assert all(s in (-1, 1) for s in data["signs"])


def test_game_trace_dimensions(tmp_path):
    trace_path = str(tmp_path / "t.csv")
    assert run(["game", "--hard-k", "4", "--maker", "pairing", "--breaker", "tree",
                "--trace", trace_path]) == 0
    rows = Path(trace_path).read_text().strip().splitlines()
    assert rows[0] == "turn,player,index_or_wait,sign,max_prefix_after"
    assert len(rows) - 1 == 17  # one move per element of the k=4 instance


def test_reduce_roundtrip(tmp_path):
    v_path = str(tmp_path / "v.json")
    seq = {"m": 2, "vectors": [["1/4", "-1/8"], ["-1/2", "1/3"]]}
    with open(v_path, "w") as fh:
        json.dump(seq, fh)
    out = str(tmp_path / "r.json")
    assert run(["reduce", "--vectors", v_path, "--mode", "roundtrip", "--out", out]) == 0
    data = json.loads(Path(out).read_text())
    assert set(data) >= {"opt_value", "extracted_value", "brute_value"}
    inst_out = str(tmp_path / "ri.json")
    assert run(["reduce", "--vectors", v_path, "--mode", "instance", "--out", inst_out]) == 0
    inst = instance_from_json(json.loads(Path(inst_out).read_text()))
    assert inst.n == 2 * 3


def test_sdp_subcommands(tmp_path):
    v_path = str(tmp_path / "v.json")
    seq = {"m": 1, "vectors": [["1/2"], ["-1/2"]]}
    with open(v_path, "w") as fh:
        json.dump(seq, fh)
    assert run(["sdp", "--mode", "choose-r", "--delta", "1/2", "--n", "4", "--m", "2"]) == 0
    assert run(["sdp", "--mode", "verify", "--vectors", v_path, "--delta", "1/2",
                "--r", "2", "--out", str(tmp_path / "s.json")]) == 0
    assert run(["sdp", "--mode", "mc", "--delta", "1/2", "--n", "4", "--m", "2",
                "--samples", "20000", "--seed", "1"]) == 0


def test_bench_summary(tmp_path):
    outdir = str(tmp_path / "bench")
    assert run(["bench", "--count", "2", "--n", "4", "--m", "2", "--seed", "5",
                "--outdir", outdir]) == 0
    assert os.path.exists(os.path.join(outdir, "summary.csv"))
    lines = (Path(outdir) / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + one row per run


def test_summarize_rejects_mixed_kinds(tmp_path):
    inst_path = str(tmp_path / "i.json")
    assert run(["gen", "instance", "--n", "3", "--m", "2", "--seed", "1",
                "--out", inst_path]) == 0
    inst = instance_from_json(json.loads(Path(inst_path).read_text()))
    fake_max = {"T_star": "1/1", "assignment": [0] * inst.n, "levels": [],
                "max_flow": "1/1"}
    fake_tot = {"lp_cost": "1/1", "alpha_levels": [], "total_flow": "1/1",
                "assignment": [0] * inst.n}
    with pytest.raises(ValidationError):
        summarize([(inst, fake_max), (inst, fake_tot)])


def test_summarize_empty_batch():
    csv_text, pretty, ok = summarize([])
    assert ok and csv_text.splitlines()[0].startswith("n,")


def test_summarize_flags_violated_bound(tmp_path):
    inst_path = str(tmp_path / "i.json")
    res_path = str(tmp_path / "r.json")
    assert run(["gen", "instance", "--n", "3", "--m", "2", "--seed", "4",
                "--out", inst_path]) == 0
    assert run(["maxflow", "--instance", inst_path, "--colorer", "greedy",
                "--out", res_path]) == 0
    inst = instance_from_json(json.loads(Path(inst_path).read_text()))
    data = json.loads(Path(res_path).read_text())
    data["max_flow"] = "1000/1"  # doctored: no longer matches the evaluation
    csv_text, pretty, ok = summarize([(inst, data)])
    assert not ok
    assert "VIOLATED" in csv_text


def test_exit_code_validation_error(tmp_path, capsys):
    assert run(["maxflow", "--instance", str(tmp_path / "missing.json")]) == 1
    err = capsys.readouterr().err
    assert "missing.json" in err


def test_exit_code_malformed_file(tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write('{"m": 1, "jobs": [{"r": "zzz", "p": ["1/1"]}]}')
    assert run(["maxflow", "--instance", bad]) == 1
    assert "zzz" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, payload", [
    ("maxflow", "--instance", {"m": 2, "jobs": []}),
    ("totalflow", "--instance", {"m": 2, "jobs": []}),
    ("color", "--vectors", {"m": 0, "vectors": [[]]}),
    ("maxflow", "--instance", {"m": 1, "jobs": [{"r": True, "p": ["1/1"]}]}),
    ("maxflow", "--instance", {"m": "x", "jobs": []}),
    ("maxflow", "--instance", {"m": 1e400, "jobs": [{"r": "0/1", "p": ["1/1"]}]}),
    ("totalflow", "--instance", {"m": float("nan"), "jobs": [{"r": "0/1", "p": ["1/1"]}]}),
    ("totalflow", "--instance", {"m": True, "jobs": [{"r": "0/1", "p": ["1/1"]}]}),
    ("color", "--vectors", {"m": 1, "vectors": [["1/2"]], "signs": ["x"]}),
    ("color", "--vectors", {"m": 1.0, "vectors": [["1/2"]]}),
    ("game", "--values", {"m": 1, "vectors": []}),
    ("reduce", "--vectors", {"m": 2, "vectors": []}),
    ("color", "--vectors", {"m": 2, "vectors": []}),   # was a witness naming prefix -1
    # a string or an object where a list is due was iterated
    ("maxflow", "--instance", {"m": 2, "jobs": [{"r": "0", "p": "12"}]}),  # was p = (1, 2)
    ("maxflow", "--instance", {"m": 2, "jobs": [{"r": "0", "p": {"1": 0, "2": 0}}]}),
    ("color", "--vectors", {"m": 2, "vectors": ["12", "34"]}),  # was (1, 2) and (3, 4)
    ("color", "--vectors", {"m": 2, "vectors": {"12": 0, "34": 0}}),
    ("color", "--vectors", {"m": 2, "vectors": [{"1": 0, "2": 0}]}),
    ("color", "--vectors", {"m": 1, "vectors": [["1/2"]], "signs": {}}),  # was no signs
])
def test_rejected_input_is_one_error_line(tmp_path, capsys, monkeypatch, command, flag, payload):
    monkeypatch.setenv("FLOWDISC_OUTDIR", str(tmp_path))
    path = str(tmp_path / "input.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    assert run([command, flag, path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("argv", [
    ["gen", "instance", "--out", "{dir}"],                   # was IsADirectoryError
    ["gen", "instance", "--out", "{dir}/missing/x.json"],    # was FileNotFoundError
    ["bench", "--count", "1", "--n", "2", "--outdir", "{file}"],  # was FileExistsError
    ["maxflow", "--instance", "{dir}"],                      # was IsADirectoryError
    ["maxflow", "--instance", "{binary}"],                   # was UnicodeDecodeError
    ["gen", "vectors", "--n", "0", "--out", "{dir}/v.json"],  # wrote an empty sequence
    ["game", "--hard-k", "2", "--breaker", "tree", "--trace", "{dir}"],  # was IsADirectoryError
    ["sdp", "--mode", "mc", "--r", "0"],                     # 0 was read as "not given"
    ["game", "--hard-k", "0"],                               # 0 was read as "not given"
    ["game", "--hard-k", "4", "--values", "{values}"],       # --values was ignored
])
def test_file_error_or_empty_request_is_one_error_line(tmp_path, capsys, argv):
    paths = {"dir": str(tmp_path), "file": str(tmp_path / "file.txt"),
             "binary": str(tmp_path / "binary.json"), "values": str(tmp_path / "values.json")}
    with open(paths["file"], "w") as fh:
        fh.write("not a directory\n")
    with open(paths["binary"], "wb") as fh:
        fh.write(b"\xff\xfe\x00\x81")
    with open(paths["values"], "w") as fh:
        json.dump({"m": 1, "vectors": [["1/2"], ["-1/3"], ["1/4"]]}, fh)
    assert run([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not os.path.exists(tmp_path / "v.json")
    if argv == ["game", "--hard-k", "0"]:
        assert "k must be even and >= 2, got 0" in err[0]
    if "--values" in argv:
        assert "--hard-k" in err[0] and "--values" in err[0]


@pytest.mark.parametrize("argv", [
    ["maxflow"],                                                # missing required option
    ["maxflow", "--instance", "inst.json", "--colorer", "foo"],  # bad choice
    ["gen", "instance", "--n", "six"],                           # bad int value
    ["solve", "--instance", "inst.json"],                        # unknown subcommand
    [],                                                          # missing subcommand
], ids=["missing-option", "bad-choice", "bad-int", "unknown-subcommand", "no-subcommand"])
def test_usage_error_is_one_error_line(capsys, argv):
    # exit 2 is kept for a failed internal check
    assert run(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error:"), err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["totalflow", "--help"])
    assert exc.value.code == 0
    assert "--colorer" in capsys.readouterr().out


def test_pipelines_offer_the_colorers_that_round_split_jobs(tmp_path, capsys):
    inst = gen_random_instance(4, 2, (1, 4), (0, 8), 0.2, seed=4)
    for pipeline in (maxflow.full_round_maxflow, totalflow.full_round_totalflow):
        with pytest.raises(ValidationError, match="outside {-1, 0, \\+1}"):  # a split job
            pipeline(inst, coloring.COLORERS["paired"])
    path = str(tmp_path / "inst.json")
    with open(path, "w") as fh:
        json.dump(instance_to_json(inst), fh)
    for command in ("maxflow", "totalflow"):
        for name in ("brute", "greedy", "floating"):
            assert run([command, "--instance", path, "--colorer", name,
                        "--out", str(tmp_path / f"{command}-{name}.json")]) == 0
        capsys.readouterr()
        assert run([command, "--instance", path, "--colorer", "paired"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "invalid choice: 'paired'" in err[0]
    assert run(["bench", "--colorer", "paired", "--outdir", str(tmp_path / "bench")]) == 1
    assert run(["color", "--vectors", "missing.json", "--colorer", "paired"]) == 1
    assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize("command, field, bad", [
    ("maxflow", "assignment", 0.5),       # was truncated to a machine index
    ("maxflow", "assignment", 1e400),
    ("maxflow", "h", 1.0),
    ("maxflow", "h", -3000),              # was a ZeroDivisionError traceback
    ("totalflow", "assignment", 0.5),
    ("totalflow", "h", "1"),
])
def test_check_rejects_malformed_result_field(tmp_path, capsys, command, field, bad):
    inst_path = str(tmp_path / "i.json")
    res_path = str(tmp_path / "r.json")
    assert run(["gen", "instance", "--n", "3", "--m", "2", "--seed", "4",
                "--out", inst_path]) == 0
    assert run([command, "--instance", inst_path, "--out", res_path]) == 0
    data = json.loads(Path(res_path).read_text())
    if field == "assignment":
        data["assignment"][0] += bad
    else:
        data["levels" if command == "maxflow" else "alpha_levels"][0]["h"] = bad
    with open(res_path, "w") as fh:
        json.dump(data, fh)
    capsys.readouterr()
    assert run(["check", "--instance", inst_path, "--result", res_path]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("malformed result file:")


@pytest.mark.parametrize("payload", [5, None, True, 1.5])
def test_check_rejects_result_that_is_not_an_object(tmp_path, capsys, payload):
    inst_path = str(tmp_path / "i.json")
    res_path = str(tmp_path / "r.json")
    assert run(["gen", "instance", "--n", "3", "--m", "2", "--seed", "4",
                "--out", inst_path]) == 0
    with open(res_path, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert run(["check", "--instance", inst_path, "--result", res_path]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("malformed result file:")


@pytest.mark.parametrize("count", ["0", "-1"])
def test_bench_rejects_count_below_one(tmp_path, capsys, count):
    assert run(["bench", "--count", count, "--outdir", str(tmp_path / "bench")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def _with_tf_level(pos, **fields):
    return lambda data: data["alpha_levels"][pos].update(fields)


@pytest.mark.parametrize("command, n, edit", [
    # a one-job run has no levels; an inflated D loosened the bound
    ("maxflow", 1, lambda data: data["levels"].append({"h": 1, "D": "1/1"})),
    # a two-job run has the one level h = 1
    ("totalflow", 2, _with_tf_level(0, h=7, bound="100", alpha_after="100")),
    ("totalflow", 3, _with_tf_level(0, bound="100/1")),
    ("totalflow", 3, _with_tf_level(0, D="-1/1", bound="0/1")),
    ("totalflow", 3, _with_tf_level(1, alpha_before="100/1")),
], ids=["maxflow-level-without-split", "totalflow-h", "totalflow-bound",
        "totalflow-negative-D", "totalflow-alpha-chain"])
def test_check_rejects_inconsistent_levels(tmp_path, capsys, command, n, edit):
    inst_path = str(tmp_path / "i.json")
    res_path = str(tmp_path / "r.json")
    if n == 1:
        with open(inst_path, "w") as fh:
            json.dump({"m": 1, "jobs": [{"r": "0/1", "p": ["1/1"]}]}, fh)
    else:
        assert run(["gen", "instance", "--n", str(n), "--m", "2", "--seed", "4",
                    "--out", inst_path]) == 0
    assert run([command, "--instance", inst_path, "--out", res_path]) == 0
    data = json.loads(Path(res_path).read_text())
    edit(data)
    with open(res_path, "w") as fh:
        json.dump(data, fh)
    capsys.readouterr()
    assert run(["check", "--instance", inst_path, "--result", res_path]) == 1
    assert "ok" not in capsys.readouterr().out.splitlines()


ONE_JOB = {"m": 1, "jobs": [{"r": "0", "p": ["1"]}]}


@pytest.mark.parametrize("result", [
    {"alpha_levels": [], "total_flow": "1/1", "assignment": [0]},  # no lp_cost
    {"lp_cost": "x", "alpha_levels": [], "total_flow": "1/1", "assignment": [0]},
    {"lp_cost": 1.5, "alpha_levels": [], "total_flow": "1/1", "assignment": [0]},
    {"lp_cost": "1/2", "alpha_levels": {}, "total_flow": "1/1", "assignment": [0]},
    {"lp_cost": "1/2", "alpha_levels": [], "total_flow": "1/1", "assignment": {"0": 0}},
    {"T_star": "1/1", "assignment": [0], "levels": {}, "max_flow": "1/1"},
    {"T_star": "1/1", "assignment": [0], "levels": "", "max_flow": "1/1"},
    {"T_star": "1/1", "assignment": {"0": 0}, "levels": [], "max_flow": "1/1"},
], ids=["totalflow-no-lp-cost", "totalflow-lp-cost-text", "totalflow-lp-cost-float",
        "totalflow-levels-object", "totalflow-assignment-object", "maxflow-levels-object",
        "maxflow-levels-string", "maxflow-assignment-object"])
def test_check_rejects_a_missing_or_mistyped_field(tmp_path, capsys, result):
    # each of these files printed ok on the one-job instance, which has no levels
    inst_path = str(tmp_path / "i.json")
    res_path = str(tmp_path / "r.json")
    with open(inst_path, "w") as fh:
        json.dump(ONE_JOB, fh)
    with open(res_path, "w") as fh:
        json.dump(result, fh)
    assert run(["check", "--instance", inst_path, "--result", res_path]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("malformed result file:")


def test_check_accepts_the_one_job_results(tmp_path, capsys):
    # the untouched files of the cases above pass
    inst_path = str(tmp_path / "i.json")
    with open(inst_path, "w") as fh:
        json.dump(ONE_JOB, fh)
    for command in ("maxflow", "totalflow"):
        res_path = str(tmp_path / f"{command}.json")
        assert run([command, "--instance", inst_path, "--out", res_path]) == 0
        capsys.readouterr()
        assert run(["check", "--instance", inst_path, "--result", res_path]) == 0
        assert capsys.readouterr().out.splitlines() == ["ok"]


def test_check_rejects_negative_maxflow_discrepancy(tmp_path, capsys):
    # a negative recorded D printed a bound below T* instead of a malformed file
    inst_path = str(tmp_path / "i.json")
    res_path = str(tmp_path / "r.json")
    assert run(["gen", "instance", "--n", "4", "--m", "2", "--seed", "4", "--out", inst_path]) == 0
    assert run(["maxflow", "--instance", inst_path, "--out", res_path]) == 0
    data = json.loads(Path(res_path).read_text())
    data["levels"][0]["D"] = "-5/1"
    with open(res_path, "w") as fh:
        json.dump(data, fh)
    capsys.readouterr()
    assert run(["check", "--instance", inst_path, "--result", res_path]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"malformed result file: level {data['levels'][0]['h']}: negative D -5"]


def test_check_rejects_negative_totalflow_discrepancy(tmp_path, capsys):
    # a negative recorded D printed its own line plus a derived bound mismatch
    inst_path = str(tmp_path / "i.json")
    res_path = str(tmp_path / "r.json")
    assert run(["gen", "instance", "--n", "4", "--m", "2", "--seed", "4", "--out", inst_path]) == 0
    assert run(["totalflow", "--instance", inst_path, "--out", res_path]) == 0
    data = json.loads(Path(res_path).read_text())
    data["alpha_levels"][0]["D"] = "-5/1"
    with open(res_path, "w") as fh:
        json.dump(data, fh)
    capsys.readouterr()
    assert run(["check", "--instance", inst_path, "--result", res_path]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"malformed result file: level {data['alpha_levels'][0]['h']}: negative D -5"]


@pytest.mark.parametrize("argv", [
    ["--mode", "choose-r", "--delta", "abc"],
    ["--mode", "choose-r", "--delta", "1/0"],
    ["--mode", "choose-r", "--n", "0"],
    ["--mode", "choose-r", "--m", "0"],
    ["--mode", "mc", "--n", "0", "--r", "2", "--samples", "10000"],
    ["--mode", "verify"],
])
def test_sdp_rejected_argument_is_one_error_line(capsys, argv):
    assert run(["sdp"] + argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


# -- input contract of `flowdisc game`, by fuzzing ---------------------------

_HUGE = ["7" * 50, "7" * 4000, "3" * 3999 + "1", "9" * 4400]  # the last is past the digit limit
_ENTRIES = st.one_of(
    st.builds(lambda q, p: f"{p}/{q}", st.integers(1, 12), st.integers(-12, 12)),
    st.integers(-3, 3),
    st.sampled_from(["5/3", "-7/2", "1.5", "0.5", "1e5", "abc", "", "1/0", "nan", "inf"]),
    st.sampled_from(_HUGE).map(lambda d: "1/" + d),
    st.sampled_from(_HUGE).map(lambda d: d + "/" + d + "1"),
    st.sampled_from([None, True, False, 0.5, [1], {}]),
)
_ROWS = st.one_of(st.lists(_ENTRIES, min_size=0, max_size=3),
                  st.sampled_from([None, "1/2", 5]))
_VALUE_FILES = st.one_of(
    st.fixed_dictionaries(
        {"m": st.sampled_from([1, 1, 1, 0, 2, -1, "1", None, True, 1.0]),
         "vectors": st.one_of(st.lists(_ROWS, max_size=6), st.sampled_from([None, "x", 3]))},
        optional={"signs": st.sampled_from([[], [1], ["x"], None])}),
    st.sampled_from([[], None, 5, "x", {}, {"m": 1}]),
).map(lambda data: json.dumps(data, allow_nan=True))
_RAW_FILES = st.sampled_from([
    '{"m": 1, "vectors": [[1' + "0" * 5000 + ']]}',  # JSON int past the digit limit
    '{"m": 1, "vectors": [[NaN]]}',
    '{"m": 1, "vectors": [["1/2"]',
    "",
])


@settings(max_examples=150, deadline=None)
# two valid values whose peak has a denominator past the digit limit
@example(text=json.dumps({"m": 1, "vectors": [["1/" + _HUGE[1]], ["1/" + _HUGE[2]]]}),
         maker="pairing", breaker="random", starter="breaker", hard_k=None)
@given(
    text=st.one_of(_VALUE_FILES, _RAW_FILES),
    maker=st.sampled_from(["pairing", "greedy"]),
    breaker=st.sampled_from(["random", "tree"]),
    starter=st.sampled_from(["maker", "breaker"]),
    hard_k=st.sampled_from([None, None, None, 0, 2, 3, 4, -2, 10]),
)
def test_game_input_contract_by_fuzzing(text, maker, breaker, starter, hard_k):
    with tempfile.TemporaryDirectory() as tmp:
        values = os.path.join(tmp, "values.json")
        with open(values, "w") as fh:
            fh.write(text)
        argv = ["game", "--values", values, "--maker", maker, "--breaker", breaker,
                "--starter", starter, "--trace", os.path.join(tmp, "trace.csv")]
        if hard_k is not None:
            argv += ["--hard-k", str(hard_k)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # a traceback fails the test
    assert code in (0, 1, 2)
    err = err.getvalue().splitlines()
    if code == 0:
        assert err == [] and out.getvalue().startswith("moves = ")
    else:
        assert len(err) == 1, err
        assert err[0].startswith("error:" if code == 1 else "internal check failed:"), err


# -- input contract of `maxflow`, `totalflow`, `color` and `check`, by fuzzing --

_SMALL = st.one_of(st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 6), st.integers(1, 3)),
                   st.integers(0, 5))


@st.composite
def _instances(draw):
    """A valid instance, often with one field replaced by a fuzzed value."""
    m = draw(st.integers(1, 3))
    jobs = []
    for _ in range(draw(st.integers(1, 4))):
        p = draw(st.lists(st.one_of(_SMALL, _SMALL, st.none()), min_size=m, max_size=m))
        jobs.append({"r": draw(_SMALL), "p": p if any(x is not None for x in p) else ["1"] + p[1:]})
    data = {"m": m, "jobs": jobs}
    spot = draw(st.sampled_from(["none", "none", "m", "jobs", "job", "r", "p", "entry"]))
    bad = draw(st.one_of(_ENTRIES, st.sampled_from([[], {}, [1], 2, 4, 0, -1])))
    job = draw(st.sampled_from(jobs))
    if spot in ("m", "jobs"):
        data[spot] = bad
    elif spot == "job":
        jobs[jobs.index(job)] = bad
    elif spot in ("r", "p"):
        job[spot] = bad
    elif spot == "entry":
        job["p"][draw(st.integers(0, m - 1))] = bad
    return data


_INSTANCE_FILES = st.one_of(
    _instances(), _instances(), _instances(),
    st.sampled_from([[], None, 5, "x", {}, {"m": 2}, {"jobs": []}]),
).map(lambda data: json.dumps(data, allow_nan=True))


@st.composite
def _vector_files(draw):
    """A valid vector file, often with one field replaced by a fuzzed value."""
    m = draw(st.integers(1, 3))
    vectors = draw(st.lists(st.lists(st.one_of(_SMALL, _ENTRIES.filter(
        lambda v: isinstance(v, str) and "/" in v)), min_size=m, max_size=m), min_size=1, max_size=6))
    data = {"m": m, "vectors": vectors}
    spot = draw(st.sampled_from(["none", "none", "m", "vectors", "row", "entry"]))
    bad = draw(st.one_of(_ENTRIES, st.sampled_from([[], {}, [1], 2, 4, 0, -1])))
    row = draw(st.integers(0, len(vectors) - 1))
    if spot in ("m", "vectors"):
        data[spot] = bad
    elif spot == "row":
        vectors[row] = bad
    elif spot == "entry":
        vectors[row][draw(st.integers(0, m - 1))] = bad
    return json.dumps(data)


_RESULT_EDITS = st.lists(st.tuples(
    st.sampled_from(["T_star", "assignment", "levels", "max_flow", "lp_cost", "alpha_levels",
                     "total_flow", "h", "D", "alpha_before", "alpha_after", "bound", "entry"]),
    st.one_of(_ENTRIES, st.integers(-2, 4), st.sampled_from([[], {}, [1], [0, 0], "-5/1"])),
), max_size=2)


def _edit_result(data, edits):
    """Apply (field, value) edits to a result: top-level fields, a field of the
    first level, or the first assignment entry ("entry")."""
    for field, value in edits:
        levels = data.get("levels") or data.get("alpha_levels")
        if field in data or field in ("T_star", "assignment", "levels", "max_flow"):
            data[field] = value
        elif field == "entry" and isinstance(data.get("assignment"), list) and data["assignment"]:
            data["assignment"][0] = value
        elif isinstance(levels, list) and levels and isinstance(levels[0], dict):
            levels[0][field] = value
    return data


def _run_contract(argv, files, success_prefix):
    """Run ``argv`` with ``files`` (name -> text) in a scratch directory: exit 0
    with no stderr, or exit 1 or 2 with one stderr line; never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w") as fh:
                fh.write(text)
        argv = [paths.get(arg, arg) for arg in argv] + ["--out", os.path.join(tmp, "out.json")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # a traceback fails the test
    assert code in (0, 1, 2)
    err = err.getvalue().splitlines()
    if code == 0:
        assert err == [] and out.getvalue().startswith(success_prefix)
    else:
        assert len(err) == 1, err
        assert err[0].startswith("error:" if code == 1 else "internal check failed:"), err


_LONG_INSTANCES = [
    '{"m": 1, "jobs": [{"r": 1' + "0" * 5000 + ', "p": ["1"]}]}',  # JSON int past the digit limit
    json.dumps({"m": 2, "jobs": [{"r": "0", "p": ["1/" + _HUGE[1], "1/" + _HUGE[2]]},
                                 {"r": "1/" + _HUGE[1], "p": ["1", "1/" + _HUGE[2]]}]}),
    '{"m": 1, "jobs": [{"r": NaN, "p": [1]}]}',
    '{"m": 2, "jobs": [',
]


@settings(max_examples=60, deadline=None)
@example(text=_LONG_INSTANCES[1], command="maxflow", colorer="greedy")
@given(text=st.one_of(_INSTANCE_FILES, st.sampled_from(_LONG_INSTANCES)),
       command=st.sampled_from(["maxflow", "totalflow"]),
       colorer=st.sampled_from(["greedy", "brute", "floating", "paired"]))
def test_pipeline_input_contract_by_fuzzing(text, command, colorer):
    prefix = "T* = " if command == "maxflow" else "lp_cost = "
    _run_contract([command, "--instance", "inst.json", "--colorer", colorer],
                  {"inst.json": text}, prefix)


@settings(max_examples=60, deadline=None)
@given(text=st.one_of(_vector_files(), _vector_files(), _VALUE_FILES, _RAW_FILES),
       colorer=st.sampled_from(["greedy", "brute", "floating", "paired"]),
       mode=st.sampled_from(["prefix", "interval", "one-sided"]),
       limit=st.sampled_from([20, 20, 0, -1, 3]))
def test_color_input_contract_by_fuzzing(text, colorer, mode, limit):
    _run_contract(["color", "--vectors", "vec.json", "--colorer", colorer, "--mode", mode,
                   "--limit", str(limit)], {"vec.json": text}, f"{colorer} {mode}: ")


@settings(max_examples=60, deadline=None)
@given(instance=st.one_of(_INSTANCE_FILES, st.sampled_from(_LONG_INSTANCES)),
       command=st.sampled_from(["maxflow", "totalflow"]),
       edits=_RESULT_EDITS,
       raw=st.one_of(st.none(), st.none(), _RAW_FILES, st.sampled_from(["[]", "5", "null"])))
def test_check_input_contract_by_fuzzing(instance, command, edits, raw):
    # the result file: the command's own result on the instance, with edits, or raw text
    with tempfile.TemporaryDirectory() as tmp:
        inst, res = os.path.join(tmp, "inst.json"), os.path.join(tmp, "res.json")
        with open(inst, "w") as fh:
            fh.write(instance)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            made = main([command, "--instance", inst, "--out", res]) == 0
        if made and raw is None:
            with open(res) as fh:
                text = json.dumps(_edit_result(json.load(fh), edits))
        else:
            text = raw if raw is not None else json.dumps(_edit_result({}, edits))
        with open(res, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", "--instance", inst, "--result", res])  # a traceback fails
    assert code in (0, 1, 2)
    out, err = out.getvalue().splitlines(), err.getvalue().splitlines()
    if code == 0:
        assert err == [] and out == ["ok"]
    elif err:  # a file that cannot be read as an instance or a result
        assert out == [] and len(err) == 1 and err[0].startswith("error:"), err
    else:  # the result's findings, one line each
        assert out and all(out), out
