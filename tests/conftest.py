import json
import struct

import numpy as np
import pytest

from adsorbtext.encoder import CHECKPOINT_MAGIC
from adsorbtext.featurize import detect_configuration, render_system_description, serialize
from adsorbtext.synth import table_fixture_system

# Pinned reference serializations of the bundled NH3/VCr3 (2 1 0) fixture;
# the byte-exactness tests compare against these frozen strings.
S1_TEXT = "<s>NH3</s>VCr3 (2 1 0)</s>"
S2_TEXT = "<s>NH3</s>VCr3 (2 1 0)</s>[N, Cr, Cr, bridge]</s>"
S3_TEXT = (
    "<s>NH3</s>VCr3 (2 1 0)</s>[N, Cr, Cr, bridge]</s>"
    "[H, 1, 1.01, 1, 4.51, 2.2, 0.75]"
    "[N, 7, 14.01, 2, 7.6, 3.04, -1.4]"
    "[Cr, 24, 52.0, 4, 78.4, 1.66, 0.67]"
    "[V, 23, 50.94, 4, 97.34, 1.63, 0.52]</s>"
)
S4_TEXT = ("<s>NH3</s>VCr3 (2 1 0)</s>"
           "[N Cr Cr bridge [Cr Cr Cr Cr V V V N] [Cr Cr Cr Cr V V V N]]</s>")
S5_TEXT = ("<s>NH3</s>VCr3 (2 1 0)</s>"
           "[N (Cr 2.1) (Cr 2.1) bridge [Cr Cr Cr Cr V V V N] [Cr Cr Cr Cr V V V N]]</s>")
DESC_TEXT = (
    "Adsorbate NH3 is adsorbed on the catalytic surface VCr3 with a Miller "
    "Index of (2, 1, 0). The N atom of the adsorbate is placed on the bridge "
    "site and is binding to the catalytic surface atoms Cr, Cr."
)

REFERENCE_TEXTS = {"S1": S1_TEXT, "S2": S2_TEXT, "S3": S3_TEXT,
                   "S4": S4_TEXT, "S5": S5_TEXT, "DESC": DESC_TEXT}


@pytest.fixture(scope="session")
def table_system():
    return table_fixture_system()


@pytest.fixture(scope="session")
def table_config(table_system):
    return detect_configuration(table_system)


@pytest.fixture(scope="session")
def fixture_corpus(table_system, table_config):
    """All five string serializations plus the description paragraph."""
    texts = [serialize(table_system, table_config, f).text
             for f in ("S1", "S2", "S3", "S4", "S5")]
    texts.append(render_system_description(table_system, table_config).text)
    return texts


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


def rewrite_checkpoint_manifest(path, edit):
    """Apply edit(manifest) to a saved checkpoint's JSON header in place,
    keeping the parameter blob and fixing the header-length field."""
    blob = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 4
    (length,) = struct.unpack("<I", blob[len(CHECKPOINT_MAGIC):start])
    manifest = json.loads(blob[start:start + length])
    edit(manifest)
    header = json.dumps(manifest, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:len(CHECKPOINT_MAGIC)] + struct.pack("<I", len(header))
                     + header + blob[start + length:])
