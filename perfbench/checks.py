"""Correctness checks: exact answer comparison and report digests."""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path

#: the default seed of the ``small`` profile; ``small2015`` keeps its own
#: default seed, 50,000 lower, and other seeds keep that offset
DEFAULT_SEED = 20200901
SEED_OFFSET_2015 = 50_000

#: sha256 of ``render_all(run_all(small, small2015))`` at the default seed.
#: The report carries no wall-time line, and it is the same for any
#: ``PYTHONHASHSEED``.
REPORT_SHA256 = "79bcaa9c9c586ffa305836318178bf9ff65cd648854a0fc5c02cc325870441ed"

_SECTION = re.compile(r"^===== (.+?) =====$", re.MULTILINE)


def seeds_for(seed: int) -> tuple[int, int]:
    """Scenario seeds of the 2020-like and 2015-like contexts."""
    return seed, (seed - SEED_OFFSET_2015) % 2**32


def same(got, want) -> bool:
    """Exact structural equality; floats must match bit for bit.

    Floats compare by ``float.hex()``, so a one-ULP difference fails,
    ``-0.0`` differs from ``0.0`` and NaN equals NaN.  An int never
    equals a float.
    """
    if isinstance(want, float) or isinstance(got, float):
        return (
            isinstance(got, float)
            and isinstance(want, float)
            and got.hex() == want.hex()
        )
    if type(got) is not type(want):
        return False
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(
            same(got[key], want[key]) for key in want
        )
    if isinstance(want, list):
        return len(got) == len(want) and all(
            same(a, b) for a, b in zip(got, want)
        )
    return got == want


def body_matches(body: bytes, want) -> bool:
    """Whether an HTTP response body decodes to exactly ``want``."""
    try:
        got = json.loads(body)
    except ValueError:
        return False
    return same(got, want)


def section_digests(report: str) -> dict[str, str]:
    """sha256 of each ``===== name =====`` section of a report."""
    marks = list(_SECTION.finditer(report))
    digests = {}
    for mark, following in zip(marks, marks[1:] + [None]):
        end = following.start() if following is not None else len(report)
        text = report[mark.start():end].rstrip("\n")
        digests[mark.group(1)] = hashlib.sha256(text.encode()).hexdigest()
    return digests


#: per-seed section digests of the report, recorded with
#: ``child_reproduce.py`` at the commit that added the benchmark (see
#: ``README.md``): ``{seed: {section: sha256}}``
PINNED_DIGESTS = Path(__file__).resolve().parent / "report_digests.json"


class DigestRegistry:
    """The section digests a seed's report must have.

    Seeds in :data:`PINNED_DIGESTS` are checked against it.  For any
    other seed the first run records its digests in ``path`` and every
    later run must repeat them.
    """

    def __init__(self, path: Path, pinned: Path = PINNED_DIGESTS) -> None:
        self.path = path
        self.pinned = json.loads(pinned.read_text()) if pinned.exists() else {}

    def check(self, seed: int, digests: dict[str, str]) -> tuple[int, list[str]]:
        """(sections checked, names of those that differ from the
        expected ones); records ``digests`` when the seed has none yet."""
        recorded = self.pinned.get(str(seed))
        if recorded is None:
            known = json.loads(self.path.read_text()) if self.path.exists() else {}
            recorded = known.get(str(seed))
            if recorded is None:
                known[str(seed)] = digests
                tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
                tmp.replace(self.path)
                return len(digests), []
        names = sorted(set(recorded) | set(digests))
        return len(names), [n for n in names if recorded.get(n) != digests.get(n)]
