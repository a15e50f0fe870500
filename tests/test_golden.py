"""Byte pins of the big sequence tables, scans and decompositions.

Each hash is the sha256 of `python -m kurepa <args> --format csv` as the
package printed it before the sequence families were rebuilt on shared
streams; any change to the bytes of these tables fails here.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import kurepa
from kurepa.report import full_report

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(kurepa.__file__)))

# a 3000-digit target drawn once with random.randrange(10**2999, 10**3000)
with open(os.path.join(os.path.dirname(__file__), "data", "decomp_target.txt")) as fh:
    DECOMP_TARGET = int(fh.read())

GOLDEN_CSV = [
    (("seq", "factorial", "0", "1200"), "0501d88a46702e16288eb9d97a467efaaedc2b361762c5b98cc74f9699aec961"),
    (("seq", "left_factorial", "1", "1200"), "fddc9bd407145016311f17c8979e67e6da0b31ba2646332f756700f81e7b257f"),
    (("seq", "alt_left", "0", "1200"), "39d4e17d2cca3055d7adf82468a88a596eb985eb3a86e20565e0ef89ae05e341"),
    (("seq", "guy_alt", "0", "1200"), "b8fc55b2f99a17a3359de27d040b01eb317717c12469969435e9e9b351748981"),
    (("seq", "wagstaff", "1", "1200"), "8e4e269c63992bf91fa6270606e451c8510b1fa0a650349f20437548e599e922"),
    (("seq", "r", "0", "1200"), "605f2161bd5a71292c476ffd2ecb1d1d13b1c7e83a6540aaf4b04d1db878351a"),
    (("seq", "derangement", "0", "1200"), "8d1b44c29979f48a782de39695c5141aa3c918ed7959d42aaa4c9ceefb5c03b2"),
    (("seq", "bell", "0", "1200"), "88ae1952593af1c92412c49c043e4fbaf83caac3a086cc9361af95666e3bedc9"),
    (("seq", "dobinski", "0", "1200"), "795f2265a06a802b4a54af24aec86b6ced4144bd075b7a9282edb416835bd323"),
    (("seq", "invbell", "0", "600"), "937bf1ca655ef5f25e055f68f484457dfe4f2399e739ebfbbb7cd37c02e09152"),
    (("seq", "fermi", "0", "600"), "96a4ee1dbecaa69f26da9c5e934565d19ad1589ba518a3ec56745d3ef97b9907"),
    (("gcd-scan", "4", "1499"), "fdb933e78b617941dffb76590ff999eb9f83a57103c51b34650e0de22fbd088a"),
    (("gcd-scan", "2", "600"), "0a35fa7755b717eb3631c53ce6db9c99bf54ee2567c41c4e95a4eb1d68d2e178"),
    (("decomp", str(DECOMP_TARGET)), "7ea8b7a756da5768e0da693daf7e1ea023055f1e1648fdf34f3a91e355c2bf88"),
]

REPORT_CSV_MD5 = "33affc09420c27073fa96628d3833ba0"


def kurepa_csv(*argv: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-m", "kurepa", *argv, "--format", "csv"],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("argv,digest", GOLDEN_CSV, ids=[" ".join(argv)[:40] for argv, _ in GOLDEN_CSV])
def test_golden_csv(argv, digest):
    assert hashlib.sha256(kurepa_csv(*argv)).hexdigest() == digest


def test_report_csv_md5():
    assert hashlib.md5(kurepa_csv("report")).hexdigest() == REPORT_CSV_MD5


# sha256 of every row's claim id and note; the csv carries no note column
REPORT_NOTES_SHA256 = "e5089aa3646c9381e852f637208e3c8ff23eab675176cb25c54b301265671b80"


def test_report_notes_sha256():
    text = "".join(f"{r.claim_id}\t{r.note}\n" for r in full_report())
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_NOTES_SHA256
