"""Runtime configuration: defaults, `spiral.conf` key=value file, environment."""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

ENV_CACHE = "SQSPIRAL_CACHE"
CONF_NAME = "spiral.conf"


@dataclass(frozen=True)
class Config:
    cache_path: str | None = None
    max_n: int = 1000
    output: str = "csv"                  # csv | json
    mirror: bool = False

    def __post_init__(self):
        if self.max_n <= 0:
            raise ValueError("max_n must be positive")
        if self.output not in ("csv", "json"):
            raise ValueError(f"output must be csv or json, not {self.output!r}")


def _flag(value: str) -> bool:
    if value.lower() not in ("1", "0", "true", "false", "yes", "no"):
        raise ValueError(f"mirror must be 1/0, true/false or yes/no, not {value!r}")
    return value.lower() in ("1", "true", "yes")


_PARSERS = {
    "cache_path": str,
    "max_n": int,
    "output": str,
    "mirror": _flag,
}


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


def parse_config(text: str, base: Config | None = None, name: str = CONF_NAME) -> Config:
    """Parse key=value lines; an unknown key or a bad value names the file `name` and the line."""
    cfg = base or Config()
    for lineno, key, value in parse_key_values(text, _PARSERS, name):
        try:
            cfg = replace(cfg, **{key: _PARSERS[key](value)})
        except ValueError as exc:
            raise ValueError(f"{name} line {lineno}: {key}: {exc}") from None
    return cfg


def load_config(path: str | None = None, env=None) -> Config:
    """Config from ./spiral.conf (if present) with SQSPIRAL_CACHE applied."""
    env = os.environ if env is None else env
    cfg = Config()
    conf = path or CONF_NAME
    if os.path.exists(conf):
        with open(conf, encoding="utf-8") as fh:
            cfg = parse_config(fh.read(), cfg, conf)
    if env.get(ENV_CACHE):
        cfg = replace(cfg, cache_path=env[ENV_CACHE])
    return cfg
