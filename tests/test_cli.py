"""Exit codes, determinism and output formats of the console entry point."""

import functools
import gc
import json
from pathlib import Path

import mpmath as mp
import pytest

from totprog import cli, constants, criterion, primes
from totprog.lvalues import Approx

GOLDEN = Path(__file__).parent / "golden"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["constants"])  # --q is required
    assert exc.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize("flag", ["--p0", "--kmax", "--grid"])
def test_removed_flags_are_usage_errors(flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--q", "7", flag, "5"])
    assert exc.value.code == cli.EXIT_USAGE


def test_main_in_process_leaves_the_collector_unfrozen(capsys):
    """main() freezes nothing, since tests call it in process: only the
    console script, run, calls gc.freeze()."""
    before = gc.get_freeze_count()
    assert run(["table", "T9"], capsys)[0] == cli.EXIT_OK
    assert gc.get_freeze_count() == before


def test_run_freezes_the_heap_then_exits_with_main(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or cli.EXIT_MISMATCH)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert calls == ["freeze", "main"] and exc.value.code == cli.EXIT_MISMATCH


def test_unknown_table_id(capsys):
    code, _, err = run(["table", "T42"], capsys)
    assert code == cli.EXIT_USAGE
    assert "unknown table id" in err


def test_key_error_inside_a_known_table_keeps_its_message(capsys, monkeypatch):
    """A KeyError raised while a known table is computed reaches main as
    itself, not as an unknown table id."""

    def bound_params(q, prec):
        raise KeyError("planted")

    monkeypatch.setattr(criterion, "bound_params", bound_params)
    code, out, err = run(["table", "T8"], capsys)
    assert (code, out, err) == (cli.EXIT_USAGE, "", "error: 'planted'\n")


@pytest.mark.parametrize("tid", ["T6", "T7"])
def test_tables_without_bundled_data(tid, capsys):
    code, _, err = run(["table", tid], capsys)
    assert code == cli.EXIT_USAGE
    assert "no published entries" in err


def test_table1_diff_ok(capsys):
    code, out, _ = run(["table", "T1"], capsys)
    assert code == cli.EXIT_OK
    rows = json.loads(out)
    assert len(rows) == 14
    assert all(r["status"] == "ok" for r in rows)


def test_table9_diff_ok(capsys):
    code, out, _ = run(["table", "T9"], capsys)
    assert code == cli.EXIT_OK
    rows = json.loads(out)
    # our exact floors sit one below the bundled values for every q
    assert all(r["floor_xq"] == r["expected"] - 1 for r in rows)


def test_table_mismatch_exit_code(capsys, monkeypatch):
    import totprog.reference_data as rd

    monkeypatch.setitem(rd.TABLE1_FQ, 1, "9.9999999")
    code, out, _ = run(["table", "T1"], capsys)
    assert code == cli.EXIT_MISMATCH
    rows = json.loads(out)
    assert [r["status"] for r in rows if r["status"] != "ok"] == ["F_q:MISMATCH"]


def test_erratum_cell_off_its_corrected_value_is_a_mismatch(capsys, monkeypatch):
    """A T8 cell listed in TABLE8_ERRATA passes as `erratum` only within tol
    of its corrected value: with P of q = 14 raised by 2, the final column
    turns positive, and both cells are mismatches."""
    bound_params = criterion.bound_params

    def raised(q, prec):
        bp = bound_params(q, prec)
        return bp._replace(P=bp.P + 2) if q == 14 else bp

    monkeypatch.setattr(criterion, "bound_params", raised)
    code, out, _ = run(["table", "T8"], capsys)
    assert code == cli.EXIT_MISMATCH
    status = {r["q"]: r["status"] for r in json.loads(out)}
    assert status[14] == "P:MISMATCH;final:MISMATCH"
    assert status[12] == "P:erratum;final:erratum"


def test_truncated_cell_off_its_true_value_is_a_mismatch(capsys, monkeypatch):
    """A T2 cell listed in TABLE2_TRUNCATED is held to its true value at the
    table's own tol: gamma_11 1.4e-5 below it is a mismatch, though within
    1e-5 of the truncated print."""
    import totprog.reference_data as rd

    gamma_p = cli.gamma_p

    def lowered(p, prec):
        g = gamma_p(p, prec)
        return g._replace(value=g.value - mp.mpf("1.4e-5")) if p == 11 else g

    monkeypatch.setattr(rd, "TABLE2", {p: rd.TABLE2[p] for p in (11, 13)})
    monkeypatch.setattr(cli, "gamma_p", lowered)
    code, out, _ = run(["table", "T2"], capsys)
    assert code == cli.EXIT_MISMATCH
    status = {r["p"]: r["status"] for r in json.loads(out)}
    assert status == {11: "gamma:MISMATCH", 13: "F:truncated-in-print"}


def test_constants_json(capsys):
    code, out, _ = run(["constants", "--q", "5", "--a", "3"], capsys)
    assert code == cli.EXIT_OK
    d = {r["name"]: r["value"] for r in json.loads(out)}
    assert d["C"].startswith("0.80595104")
    # numeric output is decimal strings, never floats
    assert isinstance(d["C"], str) and "." in d["C"]


def test_csv_format(capsys):
    code, out, _ = run(["constants", "--q", "3", "--format", "csv"], capsys)
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "name,value"
    c_line = next(l for l in lines if l.startswith("C,"))
    assert "." in c_line.split(",")[1]


def test_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["constants", "--q", "7", "--a", "3", "--out", str(f1)]) == 0
    assert cli.main(["constants", "--q", "7", "--a", "3", "--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


def test_sweep_exit_ok(capsys):
    code, out, _ = run(["sweep", "--q", "5", "--a", "3", "--xmax", "30000"], capsys)
    assert code == cli.EXIT_OK
    d = {r["name"]: r["value"] for r in json.loads(out)}
    assert d["verdict"] == "all negative"


def test_sweep_past_the_sieve_is_refused(capsys):
    # the default x_max for q = 7 is 78764, beyond a 50,000 sieve
    code, out, err = run(["sweep", "--q", "7", "--sieve-limit", "50000"], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "exceeds sieve limit 50000" in err


def test_smooth_figure_past_the_sieve_is_refused(capsys):
    # F2 enumerates the smooth set to 49,991, which a 50 sieve cannot build
    code, out, err = run(["figure", "F2", "--sieve-limit", "50"], capsys)
    assert (code, out, err) == (cli.EXIT_USAGE, "", "error: x=49991 exceeds sieve limit 50\n")


def test_sieve_limit_of_2_to_the_32_is_refused_before_sieving(capsys, monkeypatch):
    # a packed table holds primes below 2^32; past it the sweep would sieve
    # for minutes and then overflow
    monkeypatch.setattr(primes, "_segmented_sieve", lambda limit: pytest.fail(f"sieved to {limit}"))
    code, out, err = run(["sweep", "--q", "7", "--xmax", "4294967296", "--sieve-limit", "4294967296"], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: sieve limit 4294967296 must be below 2^32, the most a packed prime table holds\n"


# (a figure command, the first option in it that its figure does not read)
_UNREAD_FIGURE_OPTIONS = [
    (["figure", "F1", "--xmax", "5"], "--xmax"),
    (["figure", "F1", "--sieve-limit", "3"], "--sieve-limit"),
    (["figure", "F1", "--sieve-limit", "2000000"], "--sieve-limit"),  # the default value, given
    (["figure", "F1", "--xmax", "5", "--sieve-limit", "3"], "--xmax"),
    (["figure", "F2", "--xmax", "100"], "--xmax"),
    (["figure", "F3", "--xmax", "100"], "--xmax"),
]


@pytest.mark.parametrize("argv,flag", _UNREAD_FIGURE_OPTIONS, ids=[" ".join(a) for a, _ in _UNREAD_FIGURE_OPTIONS])
def test_figure_option_its_kind_does_not_read_is_refused(argv, flag, capsys):
    # the landau figure F1 reads no primes and the smooth-ratio F2 and F3 no
    # x_max; each used to print its default series
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: figure {argv[1]} does not read {flag}\n")


@pytest.mark.parametrize("argv", [["constants", "--q", "7"], ["sweep", "--q", "7", "--xmax", "2000"]])
def test_a_class_prints_as_its_reduced_residue(argv, capsys):
    code, out, _ = run([*argv, "--a", "8"], capsys)
    assert (code, out) == run([*argv, "--a", "1"], capsys)[:2]
    assert {r["name"]: r["value"] for r in json.loads(out)}["a"] == 1


@pytest.fixture
def sieved(monkeypatch):
    """The limits of the PrimeTables built from here on, from an empty sieve
    cache, so that every prime_table(limit) call sieves once."""
    limits = []
    real = primes.PrimeTable.__init__
    monkeypatch.setattr(primes.PrimeTable, "__init__", lambda self, limit: limits.append(limit) or real(self, limit))
    fresh = functools.lru_cache(maxsize=4)(primes.prime_table.__wrapped__)
    monkeypatch.setattr(primes, "prime_table", fresh)
    monkeypatch.setattr(cli, "prime_table", fresh)
    return limits


def test_sieve_self_check_failure_is_an_error(capsys, monkeypatch):
    # a limit no other test sieves to builds a new table, so the check runs;
    # the sweep reads to 1000001, so it sieves past 10^6
    monkeypatch.setattr(primes, "_PI_1E6", 0)
    code, out, err = run(["sweep", "--q", "7", "--xmax", "1000001", "--sieve-limit", "1000001"], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: sieve self-check failed: pi(1e6) = 78498\n"


def test_sieve_self_check_runs_on_a_default_sweep(capsys, monkeypatch, sieved):
    # a default sweep sieves to 10^5, where the other pin is checked
    monkeypatch.setattr(primes, "_PI_1E5", 0)
    code, out, err = run(["sweep", "--q", "7"], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: sieve self-check failed: pi(1e5) = 9592\n"
    assert sieved == [100_000]


def test_sweep_sieves_once_for_itself_and_the_winding_guard(capsys, monkeypatch, sieved):
    # compute C(7,1) afresh, so that the guard reads the primes too
    monkeypatch.setattr(constants, "_mertens_cached", functools.lru_cache(constants._mertens_cached.__wrapped__))
    read = []
    real = constants._reciprocal_sums.__wrapped__
    monkeypatch.setattr(
        constants,
        "_reciprocal_sums",
        functools.lru_cache(lambda q, limit, prec: read.append(limit) or real(q, limit, prec)),
    )
    code, out, _ = run(["sweep", "--q", "7"], capsys)
    assert (code, out) == (cli.EXIT_OK, (GOLDEN / "sweep_q7.json").read_text())
    assert sieved == [100_000]
    assert read == [100_000]  # one pass for the five nonprincipal characters mod 7


def test_sieve_limit_other_than_the_default_sieves_only_to_it(capsys, sieved):
    code, out, _ = run(["sweep", "--q", "3", "--xmax", "100", "--sieve-limit", "1000"], capsys)
    assert code == cli.EXIT_OK and json.loads(out)
    assert sieved[0] == 1000 and cli.DEFAULT_LIMIT not in sieved


@pytest.mark.parametrize(
    "argv,limit",
    [
        (["sweep", "--q", "12"], 100_000),  # x_max 90,720
        (["sweep", "--q", "8"], 109_133),
        (["sweep", "--q", "7", "--xmax", "2000"], 100_000),
        (["figure", "F2"], 100_000),  # the smooth set to 49,991
        (["figure", "F7", "--xmax", "2000"], 100_000),
        (["figure", "F7", "--xmax", "120000"], 120_000),
    ],
)
def test_a_command_sieves_to_the_largest_x_it_reads(argv, limit, capsys, sieved):
    assert cli.main(argv) == cli.EXIT_OK
    assert sieved[0] == limit and cli.DEFAULT_LIMIT not in sieved


# the ids of the three range tests (sieve limit, precision, x_max) are those
# they had beside the cases of the removed TOTPROG_* environment variables
@pytest.mark.parametrize("argv", [["--sieve-limit", "-5"], ["--sieve-limit", "1"]], ids=["argv0-None", "argv1-None"])
def test_sieve_limit_below_two_is_an_error(argv, capsys):
    # PrimeTable used to raise such a limit to 2 without a word
    code, out, err = run(["sweep", "--q", "7", "--xmax", "10"] + argv, capsys)
    assert (code, out, err) == (cli.EXIT_USAGE, "", "error: --sieve-limit must be at least 2\n")


def test_winding_guard_failure_is_an_error(capsys, monkeypatch):
    real = constants._winding_number
    monkeypatch.setattr(constants, "_winding_number", lambda turns: real(turns + 0.5))
    # compute C(3,1) afresh, past any cached value, so that the guard runs
    monkeypatch.setattr(constants, "_mertens_cached", constants._mertens_cached.__wrapped__)
    code, out, err = run(["sweep", "--q", "3", "--xmax", "100"], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: winding estimate ") and err.endswith(" is not within 0.25 of an integer\n")


def test_index_search_failure_is_an_error(capsys, monkeypatch):
    monkeypatch.setattr(constants, "_power_image", lambda q, n: frozenset())
    code, out, err = run(["constants", "--q", "3"], capsys)
    assert (code, out, err) == (cli.EXIT_USAGE, "", "error: index search failed\n")


def test_scan(capsys):
    code, out, _ = run(["scan", "--q", "14"], capsys)
    assert code == cli.EXIT_OK
    rows = json.loads(out)
    verdicts = {r["q"]: r["criterion"] for r in rows}
    assert verdicts[11] == "fails" and verdicts[13] == "fails"
    assert verdicts[3] == "holds" and verdicts[14] == "holds"


def test_figure_landau(capsys, monkeypatch):
    # the landau kind reads no primes, so it fetches no sieve
    monkeypatch.setattr(cli, "prime_table", lambda limit: pytest.fail(f"figure F1 asked for the primes to {limit}"))
    code, out, _ = run(["figure", "F1"], capsys)
    assert code == cli.EXIT_OK
    rows = json.loads(out)
    markers = {r["n"] for r in rows if r["marker"] == "primorial"}
    assert markers == {30, 210, 2310, 30030}


def test_figure_logf(capsys):
    code, out, _ = run(["figure", "F7", "--xmax", "2000"], capsys)
    assert code == cli.EXIT_OK
    rows = json.loads(out)
    assert {r["a"] for r in rows} == set(cli.reference_data.FIGURES["F7"]["residues"])


def test_the_environment_is_not_read(monkeypatch, capsys):
    # values the TOTPROG_* variables, once read, refused with exit 1
    monkeypatch.setenv("TOTPROG_PREC_BITS", "8")
    monkeypatch.setenv("TOTPROG_SIEVE_LIMIT", "0")
    monkeypatch.setenv("TOTPROG_XMAX", "abc")
    for argv, golden in ((["sweep", "--q", "7", "--xmax", "2000"], "sweep_q7_xmax2000.json"), (["table", "T9"], "table_T9.json")):
        assert run(argv, capsys) == (cli.EXIT_OK, (GOLDEN / golden).read_text(), "")


@pytest.mark.parametrize("bits", ["52"], ids=["flag"])
def test_precision_below_a_double_is_an_error(bits, capsys):
    code, out, err = run(["sweep", "--q", "7", "--prec-bits", bits], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: --prec-bits must be at least 53, the precision of the sweep's float tier\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--q", "0"],
        ["scan", "--q", "0"],
        ["constants", "--q", "-3"],
    ],
)
def test_nonpositive_modulus_is_an_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (cli.EXIT_USAGE, "", "error: modulus must be a positive integer\n")


# Each subcommand parses only the options it reads; these are the others.
_UNREAD_OPTIONS = [
    ["constants", "--q", "3", "--sieve-limit", "1000"],
    ["constants", "--q", "3", "--xmax", "100"],
    ["table", "T1", "--q", "0"],
    ["table", "T8", "--a", "2"],
    ["table", "T9", "--sieve-limit", "1000"],
    ["table", "T9", "--xmax", "100"],
    ["figure", "F1", "--q", "0"],
    ["figure", "F1", "--a", "2"],
    ["scan", "--q", "3", "--a", "2"],
    ["scan", "--q", "3", "--sieve-limit", "1000"],
    ["scan", "--q", "3", "--xmax", "100"],
]


@pytest.mark.parametrize("argv", _UNREAD_OPTIONS, ids=[" ".join(argv) for argv in _UNREAD_OPTIONS])
def test_option_the_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    # `table T8 --q 7` used to print all of T8
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (cli.EXIT_USAGE, "")
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in out.err


def test_sweep_within_the_budget_is_inconclusive(capsys, monkeypatch):
    # (7, 3) has log f > 0; with an error of C as large as C it is not a violation
    real = criterion.mertens_C

    def loose(q, a, prec):
        mc = real(q, a, prec)
        return mc._replace(C=Approx(mc.C.value, mc.C.value))

    monkeypatch.setattr(criterion, "mertens_C", loose)
    code, out, _ = run(["sweep", "--q", "7", "--a", "3"], capsys)
    d = {r["name"]: r["value"] for r in json.loads(out)}
    assert (code, d["verdict"]) == (cli.EXIT_INCONCLUSIVE, "inconclusive")
    assert 0 < float(d["max_log_f"]) <= float(d["error_budget"])


def test_unwritable_out_is_an_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(["table", "T9", "--out", str(path)], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--q", "7", "--xmax", "-5"],
        ["sweep", "--q", "7", "--xmax", "0"],
        ["figure", "F7", "--xmax", "0"],  # used to fall back to the figure's own x_max
    ],
    ids=["argv0-None", "argv1-None", "argv2-None"],
)
def test_xmax_below_one_is_an_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (cli.EXIT_USAGE, "", "error: --xmax must be a positive integer\n")


def test_xmax_of_one_is_checked(capsys):
    # the least x_max allowed: no progression prime, so nothing is checked
    code, out, _ = run(["sweep", "--q", "7", "--xmax", "1"], capsys)
    d = {r["name"]: r["value"] for r in json.loads(out)}
    assert (code, d["checked"], d["verdict"]) == (cli.EXIT_INCONCLUSIVE, 0, "inconclusive")
