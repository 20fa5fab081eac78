import pathlib
import re

import pytest

from sqspiral import cli
from sqspiral.cli import EXIT_USAGE, main
from sqspiral.config import load_config, parse_config

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_defaults(tmp_path):
    """No file and no environment: no cache; n, format and mirroring are
    the parser's defaults."""
    assert load_config(str(tmp_path / "missing.conf"), env={}) is None
    parse = cli._build_parser().parse_args
    args = parse(["arms", "--group", "squares"])
    assert (args.n, args.format) == (1000, "csv")
    assert parse(["primes", "--report"]).n == 1000
    args = parse(["render", "--out", "x.svg"])
    assert (args.n, args.mirror) == (1000, False)


def test_parse_overrides():
    assert parse_config("cache_path = a.bin\ncache_path = b.bin\n# comment\n\n") == "b.bin"
    assert parse_config("# only a comment\n\n") is None


def test_unknown_key_rejected():
    for text in ("speed = 11\n", "seed_bound_fraction = 0\n", "seed_bound_fraction = 1.5\n",
                 "prime_density_threshold = 0\n"):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(text)
    with pytest.raises(ValueError, match="key=value"):
        parse_config("gibberish\n")


@pytest.mark.parametrize("text", [
    pytest.param(text, id=text) for text in [
        # Keys that no longer exist: each must fail as unknown, not on a bound;
        # --n, --format and --mirror are the one source of these options.
        "max_n = 0", "max_n = -5", "output = yaml", "mirror = maybe", "mirror = on",
        "seed_bound_fraction = 0", "seed_bound_fraction = 1.5",
        "prime_density_threshold = 0",
    ]
])
def test_invariants(text):
    key = text.split()[0]
    with pytest.raises(ValueError, match=re.escape(f"spiral.conf line 1: unknown key {key!r}")):
        parse_config(text)


@pytest.mark.parametrize("text, message", [
    ("max_n = abc", "spiral.conf line 1: unknown key 'max_n'"),
    ("# sizes\n\nmax_n = 0", "spiral.conf line 3: unknown key 'max_n'"),
    ("cache_path = t.bin\noutput = xml", "spiral.conf line 2: unknown key 'output'"),
    ("cache_path = t.bin\n\nmirror = maybe\n", "spiral.conf line 3: unknown key 'mirror'"),
], ids=["max_n = abc", "max_n = 0", "output = xml", "mirror = maybe"])
def test_bad_value_names_file_line_and_key(tmp_path, monkeypatch, capsys, text, message):
    """A key that is gone is a config error naming the file, the line and the key."""
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config(text)
    conf = tmp_path / "other.conf"
    conf.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message.replace("spiral.conf", str(conf)))):
        load_config(str(conf), env={})
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spiral.conf").write_text(text)
    assert main(["build", "--n", "5"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("value, mirror", [
    ("1", True), ("true", True), ("YES", True), ("0", False), ("False", False), ("no", False),
])
def test_mirror_values(value, mirror):
    """`mirror` is no key, whether its value once meant mirrored or not
    (`mirror`): only the --mirror flag mirrors."""
    with pytest.raises(ValueError, match=re.escape("spiral.conf line 1: unknown key 'mirror'")):
        parse_config(f"mirror = {value}")
    args = cli._build_parser().parse_args(["render", "--out", "x.svg"] + ["--mirror"] * mirror)
    assert args.mirror is mirror


def test_load_config_env_and_file(tmp_path):
    conf = tmp_path / "spiral.conf"
    conf.write_text("cache_path = from_file.bin\n")
    assert load_config(str(conf), env={}) == "from_file.bin"
    # env overrides the file
    assert load_config(str(conf), env={"SQSPIRAL_CACHE": "/tmp/env.bin"}) == "/tmp/env.bin"
    assert load_config(str(tmp_path / "missing.conf"), env={}) is None
    # the file is checked even when the environment names the cache
    conf.write_text("cache_path = from_file.bin\nmax_n = 123\n")
    with pytest.raises(ValueError, match="line 2: unknown key 'max_n'"):
        load_config(str(conf), env={"SQSPIRAL_CACHE": "/tmp/env.bin"})


def test_readme_lists_the_config_keys():
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"\(`key = value`; (?:one key,|keys) ([^)]*)\)", text)
    assert listed, "README no longer lists the spiral.conf keys"
    assert re.findall(r"`(\w+)`", listed.group(1)) == ["cache_path"]
