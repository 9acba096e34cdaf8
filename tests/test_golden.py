"""Golden high-order coefficients and dense residual grids, pinned in full.

Each value is the exact output of the matching ``python -m regasym``
invocation as recorded in ``perfbench/expected.json``, whose oracle checks
it independently (criterion-3 prefixes, the connected valuation gap, the
published grid cells), except the three expansions above the bench's
sizes, (6, 8), (7, 8) and (3, 12), which are marked where they are pinned.
A change to the exact pipeline must leave every coefficient bit-identical,
and a change to the residual harness every printed grid cell.  Every
invocation in ``expected.json`` is replayed through the command line and
must print its recorded stdout byte for byte.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from regasym import cli
from regasym.connected import csg_tilde
from regasym.regular import formal_k_interpolate, sg_expansion


def rationals(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in text.split(", "))


SG_GOLDEN = {
    (3, 8): "2, -71/18, -143/1296, 2337053/699840, 1210504613/100776960, "
    "956840252047/25395793920, 2792905801830611/27427457433600, "
    "159207355061022749/987388467609600, -37564770620004407999/56873575734312960",
    (4, 8): "2, -235/24, 18289/2304, 22776313/1658880, 1727827201/63700992, "
    "9499201625747/107017666560, 58303082889165491/154105439846400, "
    "2531905322323069349/1479412222525440, 21547979524418338922117/2840471467248844800",
    (5, 6): "2, -589/30, 190249/3600, 19063687/3240000, -34591161067/777600000, "
    "-15412921330603/326592000000, 143030729435671691/587865600000000",
    # above the bench's sizes, not in expected.json: recorded from
    # sg_expansion before the kernel summed each series coefficient as one
    # dot product
    (6, 8): "2, -1241/36, 1045081/5184, -2036512597/5598720, -502091916907/1612431360, "
    "307124899309537/812665405440, 3130028212283388251/1755357275750400, "
    "628626779853878282459/126385723854028800, "
    "1357631141863153775746469/72798176939920588800",
    # above the bench's sizes, not in expected.json: recorded from
    # sg_expansion while the core series was still built in every parity
    # class; k = 7 has seven moment variables (tau, t_2..t_7)
    (7, 8): "2, -2323/42, 4105513/7056, -23970326567/8890560, 11273602227989/2987228160, "
    "11912950426596491/1756490158080, -15510889612736480629/4426355198361600, "
    "-1685871521191940264849/53116262380339200, "
    "-17265898387667626729341403/249858898237115596800",
    (3, 12): "2, -71/18, -143/1296, 2337053/699840, 1210504613/100776960, "
    "956840252047/25395793920, 2792905801830611/27427457433600, "
    "159207355061022749/987388467609600, -37564770620004407999/56873575734312960, "
    "-49160590125515072592388933/5067435597927284736000, "
    "-195114695407974739003184835023/2553987541355351506944000, "
    "-589230635804355790191943757248177/1195266169354304505249792000, "
    "-7097263868304189864178210459504620029/2581774925805297731339550720000",
}

CSG_4_6 = (
    "2, -235/24, 18289/2304, 22776313/1658880, 1727827201/63700992, "
    "9485657202323/107017666560, 58032871641856691/154105439846400"
)

FORMAL_K_3 = (
    "74237/25920, -6473/576, 27119/1728, -4715/576, 403/2880, 95/288, "
    "2705/5184, 0, -269/2880, -1/576, 7/864, 0, -1/5184"
)


@pytest.mark.parametrize("k, r", sorted(SG_GOLDEN))
def test_sg_expansion_golden(k, r):
    assert sg_expansion(k, r).coefficients == rationals(SG_GOLDEN[k, r])


def test_csg_tilde_golden(sg_reference):
    assert csg_tilde(4, 6, sg_reference[4]).coefficients == rationals(CSG_4_6)


def test_formal_k_r3_golden():
    assert formal_k_interpolate(3).numerator_coeffs == rationals(FORMAL_K_3)


EXPECTED_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
EXPECTED = json.loads(EXPECTED_PATH.read_text())

# The grids holding the known-red published cell (k=5, n=10) exit with a
# grid mismatch; every other recorded invocation exits 0.
KNOWN_RED_GRIDS = {
    "validate --which sg --k 2,3,4,5 --n 10:100:2 --r 3 --precision 4096",
    "validate --which sg --k 3,4,5 --n 10:100:10 --r 3",
}


@pytest.mark.parametrize("args", sorted(EXPECTED))
def test_dense_residual_grid_golden(args, capsys, tmp_path):
    # every recorded invocation, the dense 4096-bit grids among them: stdout
    # byte for byte and the exit code; a count runs with the bench's counts
    # workload argv: an empty data dir and the ignored --cache-dir
    options = []
    if args.startswith("count "):
        (tmp_path / "data").mkdir()
        options = ["--cache-dir", str(tmp_path / "cache"), "--data-dir", str(tmp_path / "data")]
    code = cli.main(options + args.split())
    assert capsys.readouterr().out == EXPECTED[args]
    assert code == (cli.EXIT_GOLDEN_MISMATCH if args in KNOWN_RED_GRIDS else cli.EXIT_OK)
