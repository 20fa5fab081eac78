"""Golden SHA-256 digests of user-visible outputs.

The digests were taken before the arm engines, the angle summation and the
nearest-ray search were consolidated (the two scan digests before the scan
moved to integer arithmetic, the two Fibonacci band digests before the band
sums moved to the asymptotic expansion, the two `arms` digests before the
arm walk was batched, the 200000-probe winding-distance digest before the
CSV was written in blocks, the five `arms` digests below div:7's before the
arm writers formatted from integer columns, the two `RENDER_SVG` digests
before `render_svg` placed each drawn ray once); refactors must leave these outputs
byte-identical.  The one exception is the winding-distance digest, retaken
when rows whose one-turn ray lies past the table end were dropped.  The `verify all` report digest lives in test_acceptance.py,
next to the fixture that already runs every suite.
"""
import hashlib

import pytest

from sqspiral import arms
from sqspiral.arms import report_csv, report_json
from sqspiral.cli import EXIT_OK, main
from sqspiral.verify import _cached_arm_reports

# group -> (report_json digest, report_csv digest), verify's cached reports
ARM_REPORTS = {
    "div:2": ("10f35f3b062d81858bd01d45f7b1da6669a4590832609e994c4bcebc5cf5645e",
              "b398c029be62d260a0d101f2423a62342854a7254f629a115b9578052d62b017"),
    "div:3": ("b74f1a578c3724d537616f541f48ea06823e539953bd1eb425aa395bfd110fc5",
              "13dc32075420d69b985af50cb77db7d2c38e4994bebe33323e87824aaa978b9f"),
    "div:5": ("d7c7c1ddac1f60e0b4538c504e09eed1ef62c8214e391fb41c520a954965415b",
              "ff3cd2b27b6fcfeef9634664320c1729a27117283e5a6c1f5fd4bfd75b86f538"),
    "div:7": ("e073d4730c6e7add0972926dea35981b13b6f3fac279600dc9109071cbb4ca85",
              "fff66fd6df6f0973ea7ac14687db57e0b6d8ebd15261e35d47ffdc82a6caf6ce"),
    "div:11": ("c308cf6a42b29b7754b36e973916d1a2364a5e0eec3d1f3d6a6bc237b04748e8",
               "ffac208919f0d67d8d5bb70607ba885c44e184f0c6ccb6add59a55a16091db0d"),
    "div:13": ("b2d5d0d85b21464d661de7b27bf463a8c57be075b6f42371f5f3e0ac995d743e",
               "8763f41c6032ed00d0314af2715fd307b07102b3f484d9a50022008732ba1618"),
    "div:17": ("86a3229ea3a3311c98a6fc63d31e102bb6db8343e381bb3e7818f919dc24bbef",
               "76fd3be9b0c6a6452fd9ae41a96e5485341f2407be4ce706e901a2dab6743d0e"),
    "div:19": ("0ba11d0b07dd4132de89c0d5f6ff34e4fd120baaba2f5b183b1bf7f7c668b54f",
               "138f521634181f94d6f0cdbcdd93cc27857ed55d285d0fdcfa6465b9f4e1fbd5"),
    "squares": ("2862414448fa410c5598d8ca4bc1e70a3ec99fd759f71f4f0017087e5d1d1ed5",
                "52391e845ca05c76fea538ff29cc7c7f850350a5f2f334e4583883a0f6a37df4"),
}

# argv -> digest of stdout
CLI_STDOUT = {
    "primes --report --n 2000":
        "b440ecf3a741c595e90f50c780c322dd6b1df39995559c5bdced20dd84232a52",
    "primes --report --n 20000":  # 603,704 window seeds: ten blocks of SEED_BLOCK
        "da998761d01fcac1d6c9f7dd31c7256d97fefac5349823b90f8490b10226494f",
    "areas --winding-distances 3000":  # 2666 rows, none past the table end
        "6e6fb1296f1bb321cfec257b098e0ad02f70e4d7abbf1e78085266ea72fbb4c6",
    "areas --winding-distances 200000":  # 197,200 rows: several CSV blocks
        "d8237b331b6e104adb2ea77e1a0d70850b1c4c5354331ecf3f7a5713576162f4",
    "areas --crossings 6":
        "12b89b73c3b984c228c523fb94a786bb78f02093b8ad59dd292ea5918e0e008b",
    "primes --scan-d 18 --t 100":
        "e1c15caff2b94add13d4c188870c6e3818674a0c069cded1e3e802a24665eba5",
    "primes --scan-d 17 --t 60 --c-min -3 --c-max 4":  # odd D: the other b parity
        "1049df1d6ebb0bd2602ee64e11ab645068d448cd6549e6a7e8c24a85a5ad8cfe",
    "fib --areas --count 30":
        "97a9f76104db9cf39a07f9cab449d7efa41b75ce39f6441045f586a6f4a8e277",
    "fib --areas --count 40":  # bands up to F_42 ~ 4.3e8
        "e632cc3138bf076bec3026779a9925232f1ca4158b3446b1d0a0536361e10b0d",
    # two prime chains share one canonical key; the first in seed order is kept
    "arms --group primes --n 2000 --format csv":
        "5dc34de9e39802c4db10a85468773ccac5b6ed7d2e66323c68413af4852c95f0",
    "arms --group div:7 --n 4000 --format json":
        "f0c416a8eb7c6522f1885e2a4a9362198c065129b3fbaa6030c67b3814a01418",
    "arms --group div:2 --n 1200 --format json":  # 39 MB: many JSON blocks
        "26ebe1332e08b282bbfdd23c46380e5d54aab21552122b62f9f8fbbda274f315",
    "arms --group div:2 --n 1200 --format csv":
        "cc1476dffda6575bc095f27d38a422433b26ed8625ae7191bc5588baad8d4346",
    "arms --group squares --n 100000 --format json":  # rule_5_2 is null
        "7f83ddf360b7a43b787d4588bfdc02ae8b022275356f5505b7f17ffbd02bf483",
    "arms --group fib --n 5000 --format json":  # no arms
        "4e6f61eb374a0512fb33d420820d493fde8dbc8a278d797c3c76046f54ae3eb8",
    "arms --group fib --n 5000 --format csv":
        "925119497183e764aaeee9bfc40f8156c8e7bc8c61391695cdeb11f4cb8f59b5",
}

RENDER_SQUARES_300 = "f0cc2db36f4bf352072957cda81391cc96057547aee7f74bec2ea81d8a4c9227"

# argv -> digest of the SVG it writes to fig.svg; all.style sets every style key
RENDER_SVG = {
    "render --n 400 --group div:7 --group squares --arms --mirror --style all.style":
        "473eac40a8435529360ecc84b1fa4fc731b23b11f910dfdaba12d28459e47699",
    "render --n 1":  # a boundary of one ray, no markers or overlays
        "cd52c8cdf66a72b8edbcf748e0de42cf7d96f8878edd8a884fc937b362b86602",
}
ALL_STYLE = ("background = #f8f8f0\nboundary.color = #123\nboundary.width = 0.75\n"
             "marker.radius = 2.5\narm.width = 2\n")


def _sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


@pytest.fixture
def fresh_cwd(tmp_path, monkeypatch):
    """No spiral.conf and no cache: every command builds its own table."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SQSPIRAL_CACHE", raising=False)
    return tmp_path


@pytest.mark.parametrize("spec", list(ARM_REPORTS))
def test_arm_report_digests(spec):
    report = _cached_arm_reports()[spec]
    assert (_sha(report_json(report)), _sha(report_csv(report))) == ARM_REPORTS[spec]


def test_arm_report_digests_in_small_seed_blocks(monkeypatch):
    """Walked in blocks of 300 seeds (div:2 alone has about 90,000), so chains
    and a polynomial's seeds cross block edges, the nine reports keep their bytes."""
    monkeypatch.setattr(arms, "SEED_BLOCK", 300)
    reports = _cached_arm_reports.__wrapped__()
    assert {spec: (_sha(report_json(report)), _sha(report_csv(report)))
            for spec, report in reports.items()} == ARM_REPORTS


@pytest.mark.parametrize("argv", list(CLI_STDOUT))
def test_cli_stdout_digests(argv, fresh_cwd, capsys):
    assert main(argv.split()) == EXIT_OK
    assert _sha(capsys.readouterr().out) == CLI_STDOUT[argv]


def test_render_svg_digest(fresh_cwd):
    argv = ["render", "--n", "300", "--group", "squares", "--arms", "--out", "fig.svg"]
    assert main(argv) == EXIT_OK
    assert _sha((fresh_cwd / "fig.svg").read_bytes()) == RENDER_SQUARES_300


@pytest.mark.parametrize("argv", list(RENDER_SVG))
def test_render_svg_digests(argv, fresh_cwd):
    (fresh_cwd / "all.style").write_text(ALL_STYLE)
    assert main([*argv.split(), "--out", "fig.svg"]) == EXIT_OK
    assert _sha((fresh_cwd / "fig.svg").read_bytes()) == RENDER_SVG[argv]
