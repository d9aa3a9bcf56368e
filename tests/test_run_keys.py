"""Run keys are durable identities: their digests must never drift.

Stored rows are addressed by ``run_id_for(normalized_run_key(...))``, and
so are the ids benchmark scripts and external tools keep.  A refactor of
how configuration names are resolved must leave every digest unchanged,
or existing stores silently stop serving their rows.  The table below
pins every registry name plain, with an ``@bullseye`` suffix, and with an
explicit ``predictor="oracle"`` — including the ``oracle-bp`` spellings
that collapse onto the oracle baseline.
"""

from __future__ import annotations

import pytest

from repro.harness.runner import SCHEME_FACTORIES, normalized_run_key
from repro.service.store import run_id_for

#: ``(config, predictor)`` → ``run_id`` of ``lammps`` at scale 1, 16k + 12k.
EXPECTED = {
    ('baseline', None): '327664b0ab3cd61fee6d37d3',
    ('baseline@bullseye', None): '32a6f311141d6016e9e2b537',
    ('baseline', 'oracle'): 'ae6d6c4b8aa65e2c32e7c652',
    ('oracle-bp', None): 'ae6d6c4b8aa65e2c32e7c652',
    ('oracle-bp@bullseye', None): 'ae6d6c4b8aa65e2c32e7c652',
    ('oracle-bp', 'oracle'): 'ae6d6c4b8aa65e2c32e7c652',
    ('acb', None): '04bb96ebbd853a617c708c14',
    ('acb@bullseye', None): '7cb3aaee4d8a610180984256',
    ('acb', 'oracle'): '43b82e1a7a6eb7a8085afa6e',
    ('acb-nodynamo', None): 'c2dc80d5a7dd27c4cc1f92e9',
    ('acb-nodynamo@bullseye', None): '0a05630ab6ce3f2b8e037b30',
    ('acb-nodynamo', 'oracle'): '1f3e4c2a62ff900626143f53',
    ('acb-select', None): '0a0abf9a902b85299e52ddb4',
    ('acb-select@bullseye', None): '7c0b20105dada4dfaaa2cb9d',
    ('acb-select', 'oracle'): 'be1f0e199d95f3d0814f69d1',
    ('acb-pbh', None): 'd7fc428c69488700712f7892',
    ('acb-pbh@bullseye', None): '9c78dc78ba3ac832ddccc353',
    ('acb-pbh', 'oracle'): '3cc22eeaf262d512409f727a',
    ('acb-stalls', None): '0bb241343f051ad9ec7946dd',
    ('acb-stalls@bullseye', None): '7caffa6055c2647f358aad40',
    ('acb-stalls', 'oracle'): '3056c46a943d8656d645e27e',
    ('acb-multireconv', None): '1cfe42bc69d16f312291fdb8',
    ('acb-multireconv@bullseye', None): '6d4254166b01a208f9cf54a3',
    ('acb-multireconv', 'oracle'): 'a95bdc97526456e580fc4c10',
    ('acb-dmp-reconv', None): '7f6755944ad16bb99f5363ad',
    ('acb-dmp-reconv@bullseye', None): '5cb27d9b9aa681f9572dd56a',
    ('acb-dmp-reconv', 'oracle'): '7ea0974739aadb0a4082662d',
    ('dmp', None): '707b8b55b70ac3687456d421',
    ('dmp@bullseye', None): '9e0bd58a6ef52e30848e96fc',
    ('dmp', 'oracle'): 'f5390dcb8ff3e3322ca751b2',
    ('dmp-pbh', None): '915dc97541e2f9ba758823cd',
    ('dmp-pbh@bullseye', None): 'de2b81cad95c4b1b0fd19a73',
    ('dmp-pbh', 'oracle'): '2b74ae76ff879370feabddd5',
    ('dhp', None): 'f631682eec4e14d68924d63e',
    ('dhp@bullseye', None): 'fa782f119e65c5f93b72bde7',
    ('dhp', 'oracle'): 'a771bd6529875c17e23555d9',
    ('wish', None): '002236217b22ceb21cf0a5b9',
    ('wish@bullseye', None): 'b5a70e7f165292ad4b1b9fe9',
    ('wish', 'oracle'): '4d930c233ac41058bb7decbc',
}


def test_table_covers_registry():
    for name in SCHEME_FACTORIES:
        for cell in ((name, None), (f"{name}@bullseye", None), (name, "oracle")):
            assert cell in EXPECTED


@pytest.mark.parametrize("config,predictor", sorted(EXPECTED, key=repr))
def test_run_id_unchanged(config, predictor):
    key = normalized_run_key("lammps", config, 1, predictor, 16_000, 12_000)
    assert run_id_for(key) == EXPECTED[(config, predictor)]
