"""Runtime configuration: the table cache path, from the environment or `spiral.conf`."""
from __future__ import annotations

import os

ENV_CACHE = "SQSPIRAL_CACHE"
CONF_NAME = "spiral.conf"


def parse_key_values(text: str, known, label: str):
    """(line number, key, value) per key=value line, skipping blank and '#' lines;
    a line without '=' or with a key not in `known` is a ValueError naming `label` and the line."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):  # values may contain '#' (colors)
            continue
        if "=" not in line:
            raise ValueError(f"{label} line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"{label} line {lineno}: unknown key {key!r}")
        yield lineno, key, value


def parse_config(text: str, name: str = CONF_NAME) -> str | None:
    """The last `cache_path` of key=value lines, or None; any other key is a
    ValueError naming the file `name` and the line."""
    paths = [value for _, _, value in parse_key_values(text, ("cache_path",), name)]
    return paths[-1] if paths else None


def load_config(path: str | None = None, env=None) -> str | None:
    """The cache path: SQSPIRAL_CACHE, else the `cache_path` of ./spiral.conf
    (or of `path`), else None.  The file is read, and checked, either way."""
    env = os.environ if env is None else env
    cache, conf = None, path or CONF_NAME
    if os.path.exists(conf):
        with open(conf, encoding="utf-8") as fh:
            cache = parse_config(fh.read(), conf)
    return env.get(ENV_CACHE) or cache
