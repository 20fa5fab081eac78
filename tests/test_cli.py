import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from sqspiral import cli
from sqspiral.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
from sqspiral.table import TAU, CapacityError, build_table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_and_cache_idempotent(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache = tmp_path / "table.bin"
    code, out, _ = run(capsys, "build", "--n", "1000", "--cache", str(cache))
    assert code == EXIT_OK
    assert "max_n=1000" in out and "c2_raw=" in out
    first = cache.read_bytes()
    code, _, _ = run(capsys, "build", "--n", "1000", "--cache", str(cache))
    assert code == EXIT_OK and cache.read_bytes() == first


def test_build_unwritable_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "build", "--n", "10",
                       "--cache", str(tmp_path / "no" / "dir" / "x.bin"))
    assert code == EXIT_IO and "i/o error" in err


def test_build_onto_a_directory_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    """The rename onto a directory fails after the temp file is written: the
    temp file is removed and the failure is one i/o error line."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    code, out, err = run(capsys, "build", "--n", "1000", "--cache", "d")
    assert (code, out) == (EXIT_IO, "")
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]


def test_verify_suite_passes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify", "table1")
    assert code == EXIT_OK
    assert "PASS  table1.winding_avg_5" in out
    assert "40/40 checks passed" in out
    assert "FAIL" not in out


def test_verify_deterministic_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, first, _ = run(capsys, "verify", "fig7")
    _, second, _ = run(capsys, "verify", "fig7")
    assert first == second


def test_verify_unknown_suite(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "verify", "nosuch")
    assert code == EXIT_USAGE and "usage error" in err


def test_arms_json_contains_published_sequence(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "arms", "--group", "div:11", "--n", "600",
                       "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert any(a["members"][:4] == [22, 77, 154, 253] for a in doc["arms"])
    assert doc["rule_5_2"]["N"]["22"] is True


def test_arms_bad_group(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "arms", "--group", "div:0", "--n", "100")
    assert code == EXIT_USAGE and "usage error" in err


def test_fib_angles_match_published(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "fib", "--angles", "--count", "6")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    got = {int(i): float(v) for i, v in rows}
    for k, want in enumerate((45.0, 35.26, 56.57, 67.01, 88.34, 111.40), 1):
        assert got[k] == pytest.approx(want, abs=0.01)


def test_areas_commands(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "areas", "--bands", "10")
    assert code == EXIT_OK and out.startswith("index,value")
    code, out, _ = run(capsys, "areas", "--crossings", "6")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["crossings"] == [2, 18, 54, 110, 186, 282]
    assert doc["poly"] == "10*x^2 - 14*x + 6"
    # the one format each mode writes may be asked for explicitly
    assert run(capsys, "areas", "--crossings", "6", "--format", "json") == (EXIT_OK, out, "")
    code, out, _ = run(capsys, "areas", "--winding-distances", "30")
    assert run(capsys, "areas", "--winding-distances", "30", "--format", "csv") == (
        EXIT_OK, out, "")


def test_primes_scan(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "primes", "--scan-d", "18", "--t", "60",
                       "--c-min", "-2", "--c-max", "2")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "a,b_hat,c,T,prime_count,density,coprime6"
    assert any(line.startswith("9,9,-1,") for line in out.splitlines())


def test_render_valid_svg(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out_path = tmp_path / "fig10.svg"
    code, _, _ = run(capsys, "render", "--n", "300", "--group", "div:7",
                     "--arms", "--out", str(out_path))
    assert code == EXIT_OK
    import xml.etree.ElementTree as ET
    root = ET.parse(out_path).getroot()
    assert root.tag.endswith("svg") and "viewBox" in root.attrib
    again = tmp_path / "fig10b.svg"
    run(capsys, "render", "--n", "300", "--group", "div:7", "--arms",
        "--out", str(again))
    assert out_path.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("line", ['background = #fff" onload="alert(1)',
                                  "marker.radius = 3 onclick=x", "arm.width = 0"])
def test_render_rejects_style_values_it_would_write_unescaped(tmp_path, capsys, monkeypatch,
                                                             line):
    """A style value goes into an SVG attribute as it is, so a value that is
    not a color or a positive decimal is a usage error and no SVG is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.style").write_text(line + "\n", encoding="utf-8")
    code, out, err = run(capsys, "render", "--n", "50", "--style", "bad.style",
                         "--out", "fig.svg")
    assert code == EXIT_USAGE and out == "" and "usage error: style" in err
    assert not (tmp_path / "fig.svg").exists()


def test_config_file_and_env_cache(tmp_path, capsys, monkeypatch):
    """The cache path comes from the environment, then spiral.conf; a key
    that only repeats a flag, such as `output`, is a config error."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SQSPIRAL_CACHE", raising=False)
    (tmp_path / "spiral.conf").write_text("output = json\n")
    code, out, err = run(capsys, "arms", "--group", "squares")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "config error: spiral.conf line 1: unknown key 'output'\n"
    (tmp_path / "spiral.conf").write_text("wrong = key\n")
    code, _, err = run(capsys, "arms", "--group", "squares")
    assert code == EXIT_USAGE and "config error" in err
    cache = tmp_path / "c.bin"
    (tmp_path / "spiral.conf").write_text(f"cache_path = {cache}\n")
    code, out, _ = run(capsys, "build", "--n", "500")
    assert code == EXIT_OK and f"cache={cache}" in out and cache.exists()
    os.remove(tmp_path / "spiral.conf")
    env_cache = tmp_path / "env.bin"
    monkeypatch.setenv("SQSPIRAL_CACHE", str(env_cache))
    code, out, _ = run(capsys, "build", "--n", "500")
    assert code == EXIT_OK and f"cache={env_cache}" in out
    assert env_cache.read_bytes() == cache.read_bytes()
    code, out, _ = run(capsys, "arms", "--group", "squares", "--n", "400",
                       "--format", "json")
    assert code == EXIT_OK
    assert any(a["members"][0] == 1 for a in json.loads(out)["arms"])


def test_flags_default_with_a_cache_only_config(tmp_path, capsys, monkeypatch):
    """With a spiral.conf that holds only cache_path, the parser's defaults
    give n = 1000, CSV and an unmirrored drawing."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SQSPIRAL_CACHE", raising=False)
    assert run(capsys, "build", "--n", "1000", "--cache", "c.bin")[0] == EXIT_OK
    (tmp_path / "spiral.conf").write_text("cache_path = c.bin\n")
    code, out, _ = run(capsys, "arms", "--group", "squares", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["max_n"] == 1000
    code, out, _ = run(capsys, "primes", "--report")
    assert code == EXIT_OK and out == run(capsys, "primes", "--report", "--n", "1000")[1]
    for argv in (["--out", "a.svg"], ["--n", "1000", "--out", "b.svg"],
                 ["--mirror", "--out", "m.svg"]):
        assert run(capsys, "render", *argv)[0] == EXIT_OK
    svg = {name: (tmp_path / name).read_bytes() for name in ("a.svg", "b.svg", "m.svg")}
    assert svg["a.svg"] == svg["b.svg"] != svg["m.svg"]
    for argv in (["arms", "--group", "squares"], ["areas", "--bands", "5"],
                 ["fib", "--areas"]):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK and out == run(capsys, *argv, "--format", "csv")[1]
        assert not out.lstrip().startswith("{")


@pytest.mark.parametrize("argv", [["--config", "."], []])
def test_config_path_that_cannot_be_read(tmp_path, capsys, monkeypatch, argv):
    """A directory given as --config, or found as ./spiral.conf, is an i/o error."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spiral.conf").mkdir()
    code, out, err = run(capsys, *argv, "build", "--n", "5")
    assert code == EXIT_IO and out == ""
    assert err.startswith("i/o error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["arms", "--group", "div:7", "--n", "0"],
    ["arms", "--group", "div:7", "--n", "-3"],
    ["arms", "--group", "div:7", "--n", "ten"],
    ["arms", "--group", "div:7", "--seed-bound", "0"],
    ["build", "--n", "0"],
    ["primes", "--report", "--n", "0"],
    ["primes", "--scan-d", "18", "--t", "-1"],
    ["fib", "--angles", "--count", "0"],
    ["render", "--n", "0", "--out", "x.svg"],
    ["areas", "--square-angles", "0"],
    ["areas", "--same-arm", "-2"],
    ["primes", "--scan-d", "0"],
    ["primes", "--scan-d", "18", "--c-min", "5", "--c-max", "1"],  # empty c range
    ["primes", "--scan-d", "18", "--t", "10000"],  # sieve over its budget
    ["fib", "--areas", "--count", "984"],  # last band sum is inf
    ["fib", "--areas", "--count", "1479"],  # a band end is past the float range
    ["areas", "--winding-distances", "0"],
    # flags these modes do not honour
    ["areas", "--winding-distances", "10", "--format", "json"],
    ["areas", "--winding-distances", "10", "--figure", "w.svg"],
    ["areas", "--crossings", "3", "--figure", "c.svg"],
    ["areas", "--crossings", "3", "--format", "csv"],
    # c ranges past the sieve budget, refused before their values are made
    ["primes", "--scan-d", "3", "--t", "50", "--c-min", "-99999999999999999999", "--c-max", "0"],
    ["primes", "--scan-d", "3", "--t", "50", "--c-min", "-1000000000000", "--c-max", "0"],
    ["primes", "--scan-d", "3", "--t", "50", "--c-min", "-300000000", "--c-max", "0"],
    # flags of the other primes mode, and overlays with no group to trace
    ["primes", "--report", "--n", "50", "--t", "10", "--c-min", "5"],
    ["primes", "--scan-d", "18", "--n", "5", "--c-min", "0", "--c-max", "0", "--t", "50"],
    ["render", "--out", "x.svg", "--arms"],
    ["primes", "--scan-d", "18", "--n", "1000"],  # refused at its default value too
])
def test_non_positive_sizes_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == "" and "usage error" in err
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.xfail(strict=True, raises=CapacityError,
                   reason="a size past the table budget is still a traceback with exit 1")
@pytest.mark.parametrize("argv", [
    "build --n 200000000",
    "arms --group div:7 --n 200000000",
    "render --n 200000000 --out x.svg",
    "areas --square-angles 20000",
    "areas --same-arm 20000",
    "areas --winding-distances 200000000",
    "areas --crossings 100000",
    "fib --angles --count 100",
    "primes --report --n 400000000",
])
def test_sizes_past_the_table_budget_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    """Each of these asks for a table past the entry budget, and raises before
    it allocates anything; like the sieve past its budget, it should exit 64."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SQSPIRAL_CACHE", raising=False)
    assert main(argv.split()) == EXIT_USAGE


def test_prime_report_below_two_is_empty(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "primes", "--report", "--n", "1")
    assert (code, out, err) == (
        EXIT_OK, "a,b_hat,c,len,prime_count,density,coprime6,members\n", "")


def _corrupt_nan(data: bytes) -> bytes:
    angles = np.frombuffer(data[13:], dtype="<f8").copy()
    angles[5:] = np.nan
    return data[:13] + angles.tobytes()


def _corrupt_header(data: bytes) -> bytes:
    return data[:5] + b"\xff" * 8 + data[13:]


def _cut_in_header(data: bytes) -> bytes:
    return data[:7]                        # magic, version, 2 of max_n's 8 bytes


@pytest.mark.parametrize("corrupt", [_corrupt_nan, _corrupt_header, _cut_in_header],
                         ids=["nan_angles", "max_n_2_64_minus_1", "cut_in_header"])
def test_bad_cache_is_ignored(tmp_path, capsys, monkeypatch, corrupt):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SQSPIRAL_CACHE", raising=False)
    argv = ("arms", "--group", "div:7", "--n", "600", "--format", "json")
    code, clean, _ = run(capsys, *argv)
    assert code == EXIT_OK and json.loads(clean)["arms"]
    cache = tmp_path / "bad.bin"
    run(capsys, "build", "--n", "1000", "--cache", str(cache))
    cache.write_bytes(corrupt(cache.read_bytes()))
    monkeypatch.setenv("SQSPIRAL_CACHE", str(cache))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (EXIT_OK, clean, "")


def _no_build(max_n):
    raise AssertionError(f"built a table of {max_n} although the cache holds it")


@pytest.mark.parametrize("argv", [
    ["areas", "--square-angles", "20"],
    ["areas", "--same-arm", "20"],
    ["areas", "--crossings", "4"],
    ["areas", "--winding-distances", "1000"],
    ["fib", "--angles", "--count", "8"],
    ["arms", "--group", "div:7", "--n", "300", "--format", "json"],
    ["primes", "--report", "--n", "500"],
    ["render", "--n", "200", "--group", "squares", "--arms", "--out", "fig.svg"],
], ids=" ".join)
def test_output_same_with_or_without_cache(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SQSPIRAL_CACHE", raising=False)
    bare = run(capsys, *argv)
    files = {p.name: p.read_bytes() for p in tmp_path.glob("*.svg")}
    assert bare[0] == EXIT_OK
    run(capsys, "build", "--n", "5000", "--cache", "big.bin")
    monkeypatch.setenv("SQSPIRAL_CACHE", str(tmp_path / "big.bin"))
    monkeypatch.setattr(cli, "build_table", _no_build)
    assert run(capsys, *argv) == bare
    assert {p.name: p.read_bytes() for p in tmp_path.glob("*.svg")} == files


@pytest.mark.parametrize("max_n", [1, 500, 1000, 3000])
def test_winding_rows_name_the_one_turn_ray(tmp_path, capsys, monkeypatch, max_n):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SQSPIRAL_CACHE", raising=False)
    code, out, _ = run(capsys, "areas", "--winding-distances", str(max_n))
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.splitlines()[1:]]
    big = build_table(2 * max_n).cum_angle  # big[q - 1] is the angle of ray q
    for n, m, *_ in rows:
        target = big[int(n) - 1] + TAU
        assert int(m) == 1 + int(np.argmin(np.abs(big - target))), n
    # every probe whose one-turn angle the table reaches has a row, no other
    reach = [n for n in range(1, max_n) if big[n - 1] + TAU <= big[max_n]]
    assert [int(n) for n, *_ in rows] == reach


def test_reader_leaving_early_is_not_an_error(tmp_path):
    """`sqspiral areas --winding-distances N | head`: the CSV goes out block by
    block, and a reader that closes the pipe after its first line ends the
    run with exit 0 and nothing on stderr."""
    from sqspiral.constants import CSV_BLOCK
    n = 3 * CSV_BLOCK  # several blocks, so writes follow the close
    env = {k: v for k, v in os.environ.items() if k != "SQSPIRAL_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(pathlib.Path(cli.__file__).parents[1]), env.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sqspiral.cli", "areas", "--winding-distances", str(n)],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"n,m,distance,winding,winding_avg\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (EXIT_OK, b"")


def test_parser_built_once_and_reused(tmp_path, capsys, monkeypatch):
    """One process calls main again and again: each call prints (and writes)
    what it prints with a freshly built parser, so nothing one call parses,
    such as render's appended --group list or a usage error, reaches the next."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SQSPIRAL_CACHE", raising=False)
    calls = [
        ("render", "--n", "300", "--group", "squares", "--arms", "--out", "a.svg"),
        ("render", "--n", "300", "--out", "b.svg"),
        ("arms", "--group", "div:7", "--n", "300", "--format", "json"),
        ("arms", "--group", "div:7", "--n", "300", "--format", "xml"),
        ("arms", "--group", "div:7", "--n", "300"),
        ("render", "--n", "300", "--group", "div:7", "--out", "c.svg"),
    ]

    def outcome(argv):
        code, out, err = run(capsys, *argv)
        svg = (tmp_path / argv[-1]).read_bytes() if "--out" in argv else None
        return code, out, err, svg

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    cli._build_parser.cache_clear()
    parser = cli._build_parser()
    assert [outcome(argv) for argv in calls] == fresh
    assert cli._build_parser() is parser
    assert [code for code, *_ in fresh] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_USAGE,
                                            EXIT_OK, EXIT_OK]
    assert fresh[0][3] != fresh[1][3]          # the squares markers stay in a.svg
    assert parser.parse_args(["render", "--out", "d.svg"]).group == []


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    """Every `sqspiral ...` line of the README's CLI block, comment stripped,
    exits 0 with nothing on stderr."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    examples = [shlex.split(line.split("#")[0])[1:] for line in block.splitlines()
                if line.startswith("sqspiral ")]
    assert len(examples) == 10
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SQSPIRAL_CACHE", raising=False)
    for argv in examples:
        code, _, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, ""), argv
