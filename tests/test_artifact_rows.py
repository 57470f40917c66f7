"""The TSV row format that every artifact loader reads through ``manifest.read_rows``."""

import re

import pytest

from sentpop.energy import load_energy_report
from sentpop.graph import load_edge_list
from sentpop.sentiment import load_vectors
from sentpop.synth import load_expected
from sentpop.topics import load_catalog

# each loader with a good row of its file
LOADERS = {
    "edge": (load_edge_list, "a\tb"),
    "catalog": (load_catalog, "t000\t100\t5\tk1,k2"),
    "vector": (load_vectors, "t000\tu1\t0.5,-0.25"),
    "energy": (load_energy_report, "t000\tmrf\tcosine\t1.5"),
    "expected-param": (load_expected, "param\tseed\t5"),
    "expected-topic": (load_expected, "topic\tt000\t1.5\t150.25\t150"),
    "expected-edge": (load_expected, "edge\ta\tb\t0.75"),
}


@pytest.mark.parametrize("fields", ["too-few", "too-many"])
@pytest.mark.parametrize("loader, good", LOADERS.values(), ids=LOADERS.keys())
def test_loader_rejects_a_row_with_the_wrong_field_count(tmp_path, loader, good, fields):
    bad = good.rsplit("\t", 1)[0] if fields == "too-few" else good + "\tx"
    path = tmp_path / "artifact.tsv"
    # the blank line counts toward the line number but is not a row
    path.write_text(f"{good}\n\n{bad}\n{good}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: bad [\w-]+ row at line 3$"):
        loader(path)


def test_edge_list_rejects_a_self_loop(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("a\tb\nc\tc\n")
    with pytest.raises(ValueError, match=r": bad edge row at line 2$"):
        load_edge_list(path)
