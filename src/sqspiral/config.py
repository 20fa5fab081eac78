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


def parse_key_values(text: str, known, label: str) -> dict[str, str]:
    """key=value lines, skipping blank and '#' lines; a line without '=' or
    with a key not in `known` is a ValueError naming `label` and the line."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):  # values may contain '#' (colors)
            continue
        if "=" not in line:
            raise ValueError(f"{label} line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"{label} line {lineno}: unknown key {key!r}")
        values[key] = value
    return values


def parse_config(text: str, base: Config | None = None) -> Config:
    """Parse key=value lines; unknown keys are rejected."""
    values = parse_key_values(text, _PARSERS, CONF_NAME)
    return replace(base or Config(), **{k: _PARSERS[k](v) for k, v in values.items()})


def load_config(path: str | None = None, env=None) -> Config:
    """Config from ./spiral.conf (if present) with SQSPIRAL_CACHE applied."""
    env = os.environ if env is None else env
    cfg = Config()
    conf = path or CONF_NAME
    if os.path.exists(conf):
        with open(conf, encoding="utf-8") as fh:
            cfg = parse_config(fh.read(), cfg)
    if env.get(ENV_CACHE):
        cfg = replace(cfg, cache_path=env[ENV_CACHE])
    return cfg
