import csv
import json
import os
import subprocess
import sys

import pytest

from sumsetlab import ExactnessError
from sumsetlab.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_gen_writes_deterministic_file(tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert run_cli("gen", "--family", "RandomSubset(500)", "--n", "20",
                   "--seed", "3", "--out", str(out1)) == 0
    assert run_cli("gen", "--family", "RandomSubset(500)", "--n", "20",
                   "--seed", "3", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 20


def test_gen_to_stdout(capsys):
    assert run_cli("gen", "--family", "AP(1,1)", "--n", "4") == 0
    assert capsys.readouterr().out == "1\n2\n3\n4\n"


def test_gen_and_stats_past_the_int_str_digit_limit(tmp_path, capsys):
    # 2**14 999 has 4 516 digits, past the 4 300 that str() accepts by default
    from sumsetlab import FamilySpec, gen_family, read_set_file

    out = tmp_path / "gp.txt"
    assert run_cli("gen", "--family", "GP(1,2)", "--n", "15000", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 15_000 and len(lines[-1]) == 4_516
    top = tmp_path / "top.txt"
    top.write_text("\n".join(lines[-2:]) + "\n")
    want = gen_family(FamilySpec.parse("GP(1,2)", 15_000)).elements[-2:]
    assert read_set_file(top).elements == want
    capsys.readouterr()
    assert run_cli("stats", "--in", str(top), "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["sumset"] == 3


def test_gen_missing_args():
    assert run_cli("gen", "--family", "AP(1,1)") == 2


def test_stats_matches_module_values(capsys):
    assert run_cli("stats", "--family", "AP(1,1)", "--n", "3", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sumset"] == 5
    assert payload["prodset"] == 6
    assert payload["E2"] == 19
    assert payload["E3"] == 45
    assert payload["popular_diffs"] == 5
    assert payload["rich_elements"] == 3
    assert payload["is_convex"] is False


def test_stats_single_element_file(tmp_path, capsys):
    f = tmp_path / "one.txt"
    f.write_text("5\n")
    assert run_cli("stats", "--in", str(f), "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sumset"] == payload["diffset"] == payload["prodset"] == 1


def test_stats_zero_in_set_marks_products(tmp_path, capsys):
    f = tmp_path / "z.txt"
    f.write_text("0\n1\n2\n")
    assert run_cli("stats", "--in", str(f), "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert "n/a" in payload["prodset"]
    assert payload["sumset"] == 5


def test_stats_convex_family(capsys):
    assert run_cli("stats", "--family", "ConvexPower(2)", "--n", "4",
                   "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["is_convex"] is True


def test_stats_agree_with_module_outputs(capsys):
    from fractions import Fraction

    from sumsetlab import FamilySpec, energy, gen_family, pair_set_size, rep_fn

    assert run_cli("stats", "--family", "RandomSubset(2000)", "--n", "40",
                   "--seed", "6", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    A = gen_family(FamilySpec.random_subset(2000, 40, seed=6))
    d = rep_fn(A, A, "diff")
    assert payload["sumset"] == pair_set_size(A, A, "sum")
    assert payload["prodset"] == pair_set_size(A, A, "prod")
    assert payload["E2"] == energy(d, 2).exact           # bit-for-bit integers
    assert payload["E3"] == energy(d, 3).exact
    for key, k in (("E3/2", Fraction(3, 2)), ("E12/7", Fraction(12, 7)),
                   ("E12/5", Fraction(12, 5))):
        assert abs(payload[key] - energy(d, k).approx) <= 1e-12 * energy(d, k).approx


def test_stats_requires_exactly_one_source(tmp_path):
    f = tmp_path / "s.txt"
    f.write_text("1\n")
    assert run_cli("stats") == 2
    assert run_cli("stats", "--family", "AP(1,1)", "--n", "3", "--in", str(f)) == 2


def test_verify_default_suite_passes(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = run_cli("verify", "--family", "AP(1,1)", "--n", "50", "--out", str(out))
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "check_id,inputs_desc,lhs,rhs,ratio,verdict"
    assert out.read_text().count("pass") >= 12


def test_verify_forced_failure_exits_one(tmp_path):
    code = run_cli("verify", "--family", "AP(1,1)", "--n", "20",
                   "--check-params", '{"const_scale": 1000000}',
                   "--out", str(tmp_path / "t.csv"))
    assert code == 1


def test_verify_unknown_check_usage_error(tmp_path):
    code = run_cli("verify", "--family", "AP(1,1)", "--n", "10",
                   "--checks", "definitely_not_a_check")
    assert code == 2


def test_verify_json_format(tmp_path):
    out = tmp_path / "t.json"
    assert run_cli("verify", "--family", "AP(1,1)", "--n", "12",
                   "--checks", "cs_energy,e2_lower", "--format", "json",
                   "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert [r["check_id"] for r in payload] == ["cs_energy", "e2_lower"]
    assert all(r["verdict"] == "pass" for r in payload)


def test_scan_cardinality_and_rerun_bytes(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["scan", "--families", "AP(1,1),GP(1,2)", "--sizes", "8,16",
            "--checks", "thm_sp", "--seed", "4"]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "family,n,check_id,lhs,rhs,ratio,verdict,elapsed_s"
    assert len(lines) == 1 + 4


def test_scan_failure_exit_code(tmp_path):
    code = run_cli("scan", "--families", "AP(1,1)", "--sizes", "10",
                   "--checks", "popular_mass[const_scale=100]",
                   "--out", str(tmp_path / "f.csv"))
    assert code == 1


def test_scan_json_mirror(tmp_path):
    out = tmp_path / "s.json"
    assert run_cli("scan", "--families", "AP(1,1)", "--sizes", "8",
                   "--checks", "cs_energy", "--format", "json",
                   "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload[0]["family"] == "AP(1,1)"
    assert payload[0]["verdict"] == "pass"


def test_checks_with_bracketed_comma_params(tmp_path):
    check = "st_measure[slopes=3,intercepts=10]"
    assert run_cli("verify", "--family", "AP(1,1)", "--n", "20",
                   "--checks", f"cs_energy,{check}",
                   "--out", str(tmp_path / "v.csv")) == 0
    with open(tmp_path / "v.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [6, 6, 6]
    assert [row[0] for row in rows[1:]] == ["cs_energy", check]
    out = tmp_path / "s.json"
    assert run_cli("scan", "--families", "AP(1,1)", "--sizes", "20",
                   "--checks", check, "--format", "json", "--out", str(out)) == 0
    assert [r["check_id"] for r in json.loads(out.read_text())] == [check]


def test_scan_requires_arguments():
    assert run_cli("scan", "--families", "AP(1,1)") == 2


def test_calls_share_one_parser_and_answer_alike(capsys):
    # the parser is built once per process; a parse, failed or not, leaves
    # it as it was, so a repeated bad command line reads the same
    from sumsetlab import cli

    assert cli._build_parser() is cli._build_parser()
    bad = ("gen", "--n", "x")
    assert run_cli(*bad) == 2
    first = capsys.readouterr()
    assert run_cli("gen", "--family", "AP(1,1)", "--n", "3") == 0
    assert capsys.readouterr().out == "1\n2\n3\n"
    assert run_cli(*bad) == 2
    assert capsys.readouterr() == first
    assert "usage: sumsetlab gen" in first.err


def test_scan_malformed_family_is_a_usage_error(capsys):
    assert run_cli("scan", "--families", "AP(1,x)", "--sizes", "8",
                   "--checks", "cs_energy") == 2
    assert "'AP(1,x)'" in capsys.readouterr().err


@pytest.mark.parametrize("args, named", [
    (("--checks", "holder_s[s=x]"), "check holder_s: malformed parameter s="),
    (("--checks", "diff_proj[budget=x]"), "check diff_proj: malformed parameter budget="),
    (("--checks", "rs_prop[size_guard=1/2]"), "check rs_prop: malformed parameter size_guard="),
    (("--checks", "st_measure[slopes=x]"), "check st_measure: malformed parameter slopes="),
    (("--check-params", '{"const_scale": "1/0"}'), "malformed parameter const_scale="),
])
def test_verify_malformed_check_parameter_is_a_usage_error(capsys, args, named):
    assert run_cli("verify", "--family", "AP(1,1)", "--n", "10", *args) == 2
    assert named in capsys.readouterr().err


def test_scan_malformed_check_parameter_is_a_usage_error(capsys):
    assert run_cli("scan", "--families", "AP(1,1)", "--sizes", "8",
                   "--checks", "cs_energy,holder_s[s=x]") == 2
    assert "malformed parameter s='x'" in capsys.readouterr().err


def test_incidence_grid(capsys):
    assert run_cli("incidence", "--grid", "3", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    # slopes 1..2, intercepts 1..3 on the 3x3 grid
    assert payload["lines"] == 6
    assert payload["incidences"] == 4


def test_incidence_with_line_file(tmp_path, capsys):
    lf = tmp_path / "lines.csv"
    lf.write_text("slope,intercept\n1,0\n2,0\n")
    xs = tmp_path / "xs.txt"
    xs.write_text("1\n2\n3\n")
    assert run_cli("incidence", "--xset", str(xs), "--lines", str(lf),
                   "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["incidences"] == 4


def test_incidence_zero_slope_rejected(tmp_path):
    lf = tmp_path / "lines.csv"
    lf.write_text("1,0\n0,7\n")
    xs = tmp_path / "xs.txt"
    xs.write_text("1\n2\n")
    assert run_cli("incidence", "--xset", str(xs), "--lines", str(lf)) == 2


def test_incidence_empty_line_file(tmp_path, capsys):
    lf = tmp_path / "lines.csv"
    lf.write_text("slope,intercept\n")
    xs = tmp_path / "xs.txt"
    xs.write_text("1\n2\n")
    assert run_cli("incidence", "--xset", str(xs), "--lines", str(lf),
                   "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["incidences"] == 0


def test_search_outputs(tmp_path):
    out = tmp_path / "best.txt"
    traj = tmp_path / "traj.csv"
    assert run_cli("search", "--objective", "thm_csum", "--n", "8",
                   "--budget", "10", "--seed", "0",
                   "--out", str(out), "--trajectory", str(traj)) == 0
    elems = out.read_text().split()
    assert len(elems) == 8
    rows = traj.read_text().splitlines()
    assert rows[0] == "eval,best_ratio"
    ratios = [float(r.split(",")[1]) for r in rows[1:]]
    assert ratios == sorted(ratios, reverse=True) or len(set(ratios)) == 1


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "AP(1,1)", "n": 4}))
    assert run_cli("--config", str(cfg), "gen") == 0
    assert capsys.readouterr().out == "1\n2\n3\n4\n"
    # CLI flag wins over the config value
    assert run_cli("--config", str(cfg), "gen", "--n", "2") == 0
    assert capsys.readouterr().out == "1\n2\n"


@pytest.mark.parametrize("command", ["verify", "scan"])
def test_config_lists_read_as_their_items(tmp_path, capsys, command):
    # the same options as a JSON list and as comma-list text; the list
    # once reached verify as the text of a Python list
    where = ({"family": "AP(1,1)", "n": 8} if command == "verify"
             else {"families": ["AP(1,1)", "GP(1,2)"], "sizes": [8, "16"]})
    outputs = []
    for checks in (["cs_energy", "popular_mass"], "cs_energy,popular_mass"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**where, "checks": checks}))
        assert run_cli("--config", str(cfg), command) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    rows = outputs[0].splitlines()[1:]
    assert len(rows) == (2 if command == "verify" else 2 * 2 * 2)
    cfg.write_text(json.dumps({**where, "checks": 5}))
    assert run_cli("--config", str(cfg), command) == 2
    assert "checks must be a comma list or a JSON list, got 5" in capsys.readouterr().err
    # an item that is not text is read as text, and is an unknown check id
    cfg.write_text(json.dumps({**where, "checks": ["cs_energy", 5]}))
    assert run_cli("--config", str(cfg), command) == 2
    assert "unknown check id '5'" in capsys.readouterr().err


def test_bad_config_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{nope")
    assert run_cli("--config", str(cfg), "gen", "--family", "AP(1,1)", "--n", "3") == 2


def test_io_error_exit_code(tmp_path):
    missing = tmp_path / "does" / "not" / "exist.txt"
    assert run_cli("stats", "--in", str(missing)) == 3


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "sumsetlab.cli", "gen", "--family", "AP(1,1)", "--n", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n2\n3\n"


def test_python_dash_m_sumsetlab_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "sumsetlab", "search", "--objective", "thm_csum", "--n", "8",
         "--budget", "20"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 8


@pytest.mark.parametrize("fault", [ExactnessError, ZeroDivisionError])
def test_fault_is_an_error_verdict_and_exit_4(monkeypatch, capsys, fault):
    from sumsetlab import verifier

    def broken(*args, **kwargs):
        raise fault("injected")

    monkeypatch.setattr(verifier, "projection_count", broken)
    assert run_cli("scan", "--families", "AP(1,1),GP(1,2)", "--sizes", "16",
                   "--checks", "diff_proj,cs_energy") == 4
    out, err = capsys.readouterr()
    # family labels hold commas: split from the right
    verdicts = {(row[0], row[2]): row[6]
                for row in (line.rsplit(",", 7) for line in out.splitlines()[1:])}
    kind = f"error({fault.__name__})"
    assert verdicts == {("AP(1,1)", "diff_proj"): kind, ("AP(1,1)", "cs_energy"): "pass",
                        ("GP(1,2)", "diff_proj"): kind, ("GP(1,2)", "cs_energy"): "pass"}
    assert err.count(f"{fault.__name__}: injected") == 2 and "Traceback" in err

    assert run_cli("verify", "--family", "AP(1,1)", "--n", "16",
                   "--checks", "diff_proj,cs_energy") == 4
    out, err = capsys.readouterr()
    assert [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]] == [kind, "pass"]
    assert f"{fault.__name__}: injected" in err and "Traceback" in err
    # a fault outranks a failed check
    assert run_cli("verify", "--family", "AP(1,1)", "--n", "16", "--checks",
                   "diff_proj,cs_energy", "--check-params", '{"const_scale": 1000}') == 4


@pytest.mark.parametrize("command", ["verify", "scan"])
def test_parameter_outside_its_domain_is_a_usage_error(capsys, command):
    where = (["--family", "AP(1,1)", "--n", "8"] if command == "verify"
             else ["--families", "AP(1,1)", "--sizes", "8"])
    assert run_cli(command, *where, "--checks", "cs_energy,holder_s[s=3]") == 2
    assert "holder_s requires s strictly between 1 and 3" in capsys.readouterr().err


@pytest.mark.parametrize("name, body, argv, message", [
    ("cfg.json", b"[1]\n", ["--config", "{}", "gen", "--family", "AP(1,1)"],
     "config file must hold a JSON object"),
    ("cfg.json", b'{"n": "abc"}\n', ["--config", "{}", "gen", "--family", "AP(1,1)"],
     "n must be an integer, got 'abc'"),
    ("cfg.json", b'{"n": 3.5}\n', ["--config", "{}", "gen", "--family", "AP(1,1)"],
     "n must be an integer, got 3.5"),
    ("set.txt", b"1\n2\n\xff3\n", ["stats", "--in", "{}"], "set.txt:3: not UTF-8 text"),
    ("lines.csv", b"slope,intercept\n1,0\n\xfe,2\n",
     ["incidence", "--grid", "4", "--lines", "{}"], "lines.csv:3: not UTF-8 text"),
], ids=["config-not-an-object", "config-non-integer", "config-float",
        "set-file-not-utf8", "lines-file-not-utf8"])
def test_input_file_fault_is_a_usage_error(tmp_path, capsys, name, body, argv, message):
    path = tmp_path / name
    path.write_bytes(body)
    assert run_cli(*(a.format(path) for a in argv)) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_incidence_grid_counts_the_family_as_ranges(capsys):
    assert run_cli("incidence", "--grid", "64", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lines"] == 8 * 64 and payload["incidences"] == 5312
    assert run_cli("incidence", "--grid", "64", "--slopes", "0", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lines"] == payload["incidences"] == 0 and payload["st_ratio"] == 0.0


@pytest.mark.parametrize("family, check, params, shown", [
    ("AP(1,1)", "st_measure", '{"slopes": 2.5}', "slopes=2.5"),
    ("AP(1,1)", "st_measure", '{"slopes": true}', "slopes=True"),
    ("AP(1,1)", "st_measure", '{"slopes": 3.0}', "slopes=3.0"),
    ("GP(1,2)", "rs_prop", '{"size_guard": 7.9}', "size_guard=7.9"),
    ("AP(1,1)", "st_measure[slopes=2.5]", None, "slopes='2.5'"),
], ids=["float", "bool", "integral-float", "size-guard-float", "inline-float"])
def test_integer_check_parameter_rejects_non_integers(capsys, family, check, params, shown):
    # an integer parameter is an int or its decimal text; a JSON float or
    # bool is not truncated to one
    extra = [] if params is None else ["--check-params", params]
    assert run_cli("verify", "--family", family, "--n", "8", "--checks", check, *extra) == 2
    err = capsys.readouterr().err
    assert f"malformed parameter {shown}" in err and "Traceback" not in err


def test_integer_check_parameter_accepts_int_and_decimal_text(capsys):
    for params in ('{"slopes": 3}', '{"slopes": "3"}'):
        assert run_cli("verify", "--family", "AP(1,1)", "--n", "8", "--checks",
                       "st_measure", "--check-params", params) == 0
        assert '"|A|=8,|L|=24,' in capsys.readouterr().out
