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


_PARSERS = {
    "cache_path": str,
    "max_n": int,
    "output": str,
    "mirror": lambda v: v.lower() in ("1", "true", "yes"),
}


def parse_config(text: str, base: Config | None = None) -> Config:
    """Parse key=value lines; unknown keys are rejected."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{CONF_NAME} line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ValueError(f"{CONF_NAME} line {lineno}: unknown key {key!r}")
        values[key] = _PARSERS[key](value)
    return replace(base or Config(), **values)


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
