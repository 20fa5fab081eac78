import pathlib
import re

import pytest

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
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("speed = 11\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_config("gibberish\n")


@pytest.mark.parametrize("text", [
    "max_n = 0", "seed_bound_fraction = 0", "seed_bound_fraction = 1.5",
    "prime_density_threshold = 0", "output = yaml",
])
def test_invariants(text):
    with pytest.raises(ValueError):
        parse_config(text)


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
