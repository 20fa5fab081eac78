import pathlib
import re

import pytest

from sqspiral.cli import EXIT_USAGE, main
from sqspiral.config import _PARSERS, Config, load_config, parse_config

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_defaults():
    cfg = Config()
    assert cfg.max_n == 1000 and cfg.output == "csv" and not cfg.mirror


def test_parse_overrides():
    cfg = parse_config("max_n = 250\noutput=json\nmirror=true\n"
                       "# comment\n\n")
    assert cfg.max_n == 250 and cfg.output == "json" and cfg.mirror


def test_unknown_key_rejected():
    for text in ("speed = 11\n", "seed_bound_fraction = 0\n", "seed_bound_fraction = 1.5\n",
                 "prime_density_threshold = 0\n"):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(text)
    with pytest.raises(ValueError, match="key=value"):
        parse_config("gibberish\n")


@pytest.mark.parametrize("text, message", [
    pytest.param(text, message, id=text) for text, message in [
        ("max_n = 0", "max_n must be positive"),
        ("max_n = -5", "max_n must be positive"),
        ("output = yaml", "output must be csv or json"),
        ("mirror = maybe", "mirror must be 1/0"),
        ("mirror = on", "mirror must be 1/0"),
        # Keys that no longer exist: each must fail as unknown, not on a bound.
        ("seed_bound_fraction = 0", "unknown key"),
        ("seed_bound_fraction = 1.5", "unknown key"),
        ("prime_density_threshold = 0", "unknown key"),
    ]
])
def test_invariants(text, message):
    with pytest.raises(ValueError, match=message):
        parse_config(text)


@pytest.mark.parametrize("text, message", [
    ("max_n = abc", "spiral.conf line 1: max_n: invalid literal for int()"),
    ("# sizes\n\nmax_n = 0", "spiral.conf line 3: max_n: max_n must be positive"),
    ("max_n = 20\noutput = xml", "spiral.conf line 2: output: output must be csv or json"),
    ("output = json\nmirror = maybe\n", "spiral.conf line 2: mirror: mirror must be 1/0"),
], ids=["max_n = abc", "max_n = 0", "output = xml", "mirror = maybe"])
def test_bad_value_names_file_line_and_key(tmp_path, monkeypatch, capsys, text, message):
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
    assert parse_config(f"mirror = {value}").mirror is mirror


def test_load_config_env_and_file(tmp_path, monkeypatch):
    conf = tmp_path / "spiral.conf"
    conf.write_text("max_n = 123\ncache_path = from_file.bin\n")
    cfg = load_config(str(conf), env={})
    assert cfg.max_n == 123 and cfg.cache_path == "from_file.bin"
    cfg = load_config(str(conf), env={"SQSPIRAL_CACHE": "/tmp/env.bin"})
    assert cfg.cache_path == "/tmp/env.bin"   # env overrides the file
    cfg = load_config(str(tmp_path / "missing.conf"), env={})
    assert cfg == Config()


def test_readme_lists_the_config_keys():
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"spiral\.conf` \(`key = value`; keys ([^)]*)\)", text)
    assert listed, "README no longer lists the spiral.conf keys"
    assert sorted(re.findall(r"`(\w+)`", listed.group(1))) == sorted(_PARSERS)
