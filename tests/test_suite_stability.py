"""The suite CSV is byte-stable: the sha256 of every (circuit, method, k)'s
CSV cells, without ``runtime_ms``, and of the improvement summaries is
pinned for one circuit of each generated family and a fixture, at k in
{2, 3}, with all three methods over 131 seeds, which cross the 128-seed
chunk of the deal.  A changed digest means a changed byte."""

import hashlib
import json
from itertools import groupby

from qpart.bench import CircuitJob, SuiteSpec, run_suite

from conftest import FIXTURES

SPEC = SuiteSpec(circuits=tuple(CircuitJob.parse(c) for c in
                                ("ghz:6", "qft:5", "random:7:2",
                                 str(FIXTURES / "toffoli_mix_5.qasm"))),
                 parts=(2, 3), seed_from=0, seed_to=131)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _digests():
    rows, summaries = run_suite(SPEC)
    cells = {key: _sha("\n".join(",".join(r.csv_cells()[:-1]) for r in group))
             for key, group in groupby(rows, key=lambda r: (r.circuit, r.method, r.k))}
    return cells, {(s["circuit"], s["k"]): _sha(json.dumps(s, sort_keys=True))
                   for s in summaries}


# the first 16 hex digits of each sha256; any changed byte changes them
CELLS = {
    ("ghz6", "Random", 2): "05792967c18effc9",
    ("ghz6", "FM", 2): "7dc2d43e7fb47db3",
    ("ghz6", "FMGrouped", 2): "f6127a0c430fdff8",
    ("ghz6", "Random", 3): "1b19c7daa8ab88fb",
    ("ghz6", "FM", 3): "40235793606a7b42",
    ("ghz6", "FMGrouped", 3): "26d7bd9a07f8b568",
    ("qft5", "Random", 2): "6c225f7a460f4c5d",
    ("qft5", "FM", 2): "880882d749036585",
    ("qft5", "FMGrouped", 2): "8827d4419da8587e",
    ("qft5", "Random", 3): "6deab3bcae6f96a9",
    ("qft5", "FM", 3): "3f52a61f419cfc6e",
    ("qft5", "FMGrouped", 3): "5bd4b3946ad270b1",
    ("random7", "Random", 2): "97f902c448825dd4",
    ("random7", "FM", 2): "7c775bd4cfdfa05f",
    ("random7", "FMGrouped", 2): "ae549e3fb7ef12f0",
    ("random7", "Random", 3): "6598bb9ef5b9c06f",
    ("random7", "FM", 3): "8fd8136a276f6a6e",
    ("random7", "FMGrouped", 3): "7a72bda1f761f6c5",
    ("toffoli_mix_5", "Random", 2): "c997642a5e2832c6",
    ("toffoli_mix_5", "FM", 2): "7cd10aa051e939d5",
    ("toffoli_mix_5", "FMGrouped", 2): "0144719a35a55aa2",
    ("toffoli_mix_5", "Random", 3): "c8c8a3a5af635e32",
    ("toffoli_mix_5", "FM", 3): "8bf542d231379a21",
    ("toffoli_mix_5", "FMGrouped", 3): "302f38dbd46d2607",
}

SUMMARIES = {
    ("ghz6", 2): "c1296dc42678aca1",
    ("ghz6", 3): "1256de8dd0eda62e",
    ("qft5", 2): "c2c5e1290437a5c3",
    ("qft5", 3): "6dcc34ed87d5b803",
    ("random7", 2): "8d1581857b302196",
    ("random7", 3): "5c720af25151b3b2",
    ("toffoli_mix_5", 2): "ad2dab214c40a092",
    ("toffoli_mix_5", 3): "c4af11c082f31c12",
}


def test_suite_csv_is_byte_stable():
    cells, summaries = _digests()
    assert cells == CELLS
    assert summaries == SUMMARIES
