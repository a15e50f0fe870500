"""Byte pins of the big sequence tables, scans and decompositions.

Each hash is the sha256 of `python -m kurepa <args> --format csv` as the
package printed it before the sequence families were rebuilt on shared
streams; any change to the bytes of these tables fails here. The
`gcd-scan 4 4999` pin was taken from the direct route, one math.gcd of
gcd(F_n + a, (n+1)!) per row, before the scan moved to prime residues.
The `gcd-scan 5 4999` pin (its gcd passes 2**30, so it takes CPython's
multi-digit gcd) and the exact-zero pin at a = -F_40 (rows 39 and 40 are
40! and 41!) were taken from the prime-residue route, before the scan
became the recurrence g(n) = gcd(F_n + a, (n+1) * g(n-1)).
The `physics debruijn` pins, in csv, json and plain, were taken while
ln Bell_n came from the exact Bell number, before it came from Dobinski's
series.

GOLDEN_OTHER pins the JSON and plain bytes of a Bell table, a Dobinski
table (EScaled cells), the 3000-digit decomposition and the report, taken
with `python -m kurepa <args> --format json|plain` while the renderers still
built each table as one string, before they became line generators that
write as they go. The JSON envelope of the report carries the row notes, so
its pin and REPORT_NOTES_SHA256 were retaken when the note on
table10.nextplus1.n0 was corrected; the report's csv and plain bytes did not
change.
The JSON pins of `seq left_factorial`, `r` and `derangement` up to n = 1200
were taken while JSON `seq` still read the point functions one n at a time
from the five-sum factorial walk, before every format read the family's
accumulate scan.
The `seq dobinski` and `fermi` pins to n = 1200 and the `seq invbell` pins
to n = 900, in csv, json and plain, were taken while those three families
were still read one n at a time from their point functions, and an EScaled
coefficient was a Fraction, before every `seq` family read its scan.
"""

import hashlib
import json
import math
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

# F_40 = !41 = 0! + 1! + ... + 40!; a = -F_40 zeroes the term F_40 + a
MINUS_F40 = -sum(math.factorial(k) for k in range(41))

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
    (("seq", "fermi", "0", "1200"), "096543b3f5385fbf24ac8cd6c5a81af9fd24420cd1e4f96e6b2f346285b2488b"),
    (("seq", "invbell", "0", "900"), "47fa745840174a41c23950622b362916aee6ac6f99b000fd2d94c86e1f3b4e52"),
    (("gcd-scan", "4", "1499"), "fdb933e78b617941dffb76590ff999eb9f83a57103c51b34650e0de22fbd088a"),
    (("gcd-scan", "4", "4999"), "6d7bd090a58bcc0be3e87a325fd466b727b2c699bc680dbbe46a1910972865f5"),
    (("gcd-scan", "2", "600"), "0a35fa7755b717eb3631c53ce6db9c99bf54ee2567c41c4e95a4eb1d68d2e178"),
    (("gcd-scan", "5", "4999"), "07870ae29c82756fb1be0fa8efb8e1c12b671dc7492603729e4942de095f2dca"),
    (("gcd-scan", str(MINUS_F40), "1499"), "b7dfb1cb11c133999e856e5410e9dab572819641c64b47b56b0a8bab1086565d"),
    (("decomp", str(DECOMP_TARGET)), "7ea8b7a756da5768e0da693daf7e1ea023055f1e1648fdf34f3a91e355c2bf88"),
    (("physics", "debruijn"), "52a9d8bd1d645133bd4146c9df4cee508eddeb134984430663b7e6f6044eabc7"),
]

GOLDEN_OTHER = [
    ("json", ("seq", "bell", "0", "300"), "2c3e14c0c16b73132ad58556a68ccaa6067beaaa453b7b02bc5498154ba9bda9"),
    ("json", ("seq", "dobinski", "0", "50"), "2bddb5e4ec19f8c028e1bac0f06bafd804edf57f468980e004f0b18697272a38"),
    ("json", ("decomp", str(DECOMP_TARGET)), "918b2b9055cacb9c64f22f6efd9faa69c426d11bef8559ba8d2ee3a84bc9f9ee"),
    ("json", ("report",), "f36adfe1710f6afff7cff6fc01f8ff8da824a908ba8f968ea2ff3ed0cad9a3f1"),
    ("plain", ("seq", "bell", "0", "300"), "bc25a1d60ace8bdb42f7aebb1b13dcd219e54d07ab6b7e8c56b174be3a752942"),
    ("plain", ("seq", "dobinski", "0", "50"), "5263fb74fdb7c7b22a6903bb2fd74dac30a210ba385fa636e5768700ccde09cc"),
    ("plain", ("decomp", str(DECOMP_TARGET)), "3635e4f3209ad09295c164e823ab8c65411a2c42ccb5cacf1cade4ddc4c6ec36"),
    ("plain", ("report",), "b06562c8d54ba2dcb5a6f4b86bf218d60f78313bdba95db741afdeccab46d529"),
    ("json", ("physics", "debruijn"), "100d575f5a30a3b2dee9d90364f58e1cf3434f25f182bb132beecca63fec6526"),
    ("plain", ("physics", "debruijn"), "2d600803fb1e0a507b5bb224e9586343ece3553b30a2ea09735ac1b8ec50c3b0"),
    ("json", ("seq", "left_factorial", "1", "1200"), "cca0046a744586a1161d833299607a4a571191cbe6e36970cebab18c568b32c5"),
    ("json", ("seq", "r", "0", "1200"), "bf67d38bcdc3a1674827f7cc68c6536ff09a17350c3cac3c0d620c2ab3a4a928"),
    ("json", ("seq", "derangement", "0", "1200"), "7ad046075f16f1faf026307abb50c05bda64afa6f3a83801c2c00dcc8d20de32"),
    ("json", ("seq", "dobinski", "0", "1200"), "6a99b2e9d757bbdb11880ada9d1c1b794c5172339e57bc487578905a5ebb0217"),
    ("plain", ("seq", "dobinski", "0", "1200"), "10bfd9a1fc4989318fefa68e62d8a9acc4949ac90f9f86841f32659db5d83ea9"),
    ("json", ("seq", "fermi", "0", "1200"), "82921ec81917f13bcc34958c13f4ffa3255700735164c72f77e2df9536cee5e0"),
    ("plain", ("seq", "fermi", "0", "1200"), "135ffd7877326b5d796fa9c194a02cabde7360be9df945af1f4f947a68e5f05e"),
    ("json", ("seq", "invbell", "0", "900"), "8690a5e6329d21282381e720205b0a530edefd4b4574d178590778ea37cea07a"),
    ("plain", ("seq", "invbell", "0", "900"), "8a6dfba082e32926d8c0adc31144cd91b8ac3fadc49a9d3f9531ef86076ff279"),
]

REPORT_CSV_MD5 = "33affc09420c27073fa96628d3833ba0"

# pins whose csv or plain bytes come from exact Decimal arithmetic, and the
# report, whose greedy rows run on ints
DECIMAL_PINS = [
    ("plain", ("seq", "bell", "0", "300")),
    ("csv", ("seq", "derangement", "0", "1200")),
    ("csv", ("decomp", str(DECOMP_TARGET))),
    ("plain", ("decomp", str(DECOMP_TARGET))),
]
PINNED = {(fmt, argv): digest for fmt, argv, digest in GOLDEN_OTHER} | {
    ("csv", argv): digest for argv, digest in GOLDEN_CSV
}


def kurepa_out(fmt: str, *argv: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-m", "kurepa", *argv, "--format", fmt],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("argv,digest", GOLDEN_CSV, ids=[" ".join(argv)[:40] for argv, _ in GOLDEN_CSV])
def test_golden_csv(argv, digest):
    assert hashlib.sha256(kurepa_out("csv", *argv)).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt,argv,digest", GOLDEN_OTHER, ids=[f"{fmt} {' '.join(argv)[:30]}" for fmt, argv, _ in GOLDEN_OTHER]
)
def test_golden_json_and_plain(fmt, argv, digest):
    assert hashlib.sha256(kurepa_out(fmt, *argv)).hexdigest() == digest


def test_report_csv_md5():
    assert hashlib.md5(kurepa_out("csv", "report")).hexdigest() == REPORT_CSV_MD5


# sha256 of every row's claim id and note; the csv carries no note column
REPORT_NOTES_SHA256 = "4949455ac7ebbc3d275a285d6da6dbbcb3e1b0dbaea01e9de61bdec3ab52fa2f"


def test_report_notes_sha256():
    text = "".join(f"{r.claim_id}\t{r.note}\n" for r in full_report())
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_NOTES_SHA256


# A caller's context that would round the walks (5 digits), or let every
# condition pass silently (no traps), changes no byte: the arithmetic runs
# under the package's own exact context. A fresh interpreter starts with
# empty memos, so the Bell triangle is built inside the caller's context.
@pytest.mark.parametrize("setup", ["ctx.prec = 5", "ctx.clear_traps()"])
def test_decimal_output_ignores_the_callers_context(setup):
    script = (
        "import contextlib, decimal, hashlib, io, json, sys\n"
        "from kurepa.cli import main\n"
        "for fmt, *argv in json.loads(sys.stdin.read()):\n"
        "    out = io.StringIO()\n"
        "    with decimal.localcontext() as ctx, contextlib.redirect_stdout(out):\n"
        f"        {setup}\n"
        "        code = main([*argv, '--format', fmt])\n"
        "    digest = hashlib.md5 if argv == ['report'] else hashlib.sha256\n"
        "    print(code, digest(out.getvalue().encode()).hexdigest())\n"
    )
    commands = [*DECIMAL_PINS, ("csv", ("report",))]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps([[fmt, *argv] for fmt, argv in commands]),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
    )
    assert proc.returncode == 0, proc.stderr
    expected = [f"0 {PINNED[fmt, argv]}" for fmt, argv in DECIMAL_PINS] + [f"0 {REPORT_CSV_MD5}"]
    assert proc.stdout.splitlines() == expected
