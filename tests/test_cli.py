"""Command harness: grids, suite runner, report format, determinism, eval."""

import argparse
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import holobreak
from holobreak import juhl, rc_transform, term_algebra
from holobreak.cli import (
    _EVAL_FORMS,
    _EVAL_HELP,
    _build_l2_plancherel,
    _close_logs,
    _encode,
    _fragment,
    _json,
    _record_text,
    NEGATIVE_VALUE,
    SUITE_DEFAULTS,
    SUITES,
    VERIFY_OPTIONS,
    CLOSED_FORM_TOL,
    ConfigError,
    SuiteConfig,
    VerificationReport,
    _build_parser,
    _resolve_config,
    main,
    parse_value,
    read_config_file,
    run_suite,
)
from holobreak.quadrature import build_rule
from holobreak.rc_transform import RCParams, c_ell, log_b_const, log_r_ell
from holobreak.term_algebra import evaluate, qqi, scale
from holobreak.rc_transform import psi_ktype_closed_form


def small_config(suite, **overrides):
    base = dict(
        suite=suite,
        lam1=(Fraction(2),),
        lam2=(Fraction(2),),
        lam=(Fraction(3),),
        n=(3,),
        ell_max=1,
        tol=1e-7,
        exact=False,
    )
    base.update(overrides)
    return SuiteConfig(**base)


def run_lines(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, lines


# ---------------------------------------------------------------------------
# parameter parsing and configuration


def test_parse_value_tiers():
    assert parse_value("7/2") == Fraction(7, 2)
    assert isinstance(parse_value("7/2"), Fraction)
    assert parse_value("2") == Fraction(2)
    assert isinstance(parse_value("2"), Fraction)
    assert parse_value("2.5") == 2.5
    assert isinstance(parse_value("2.5"), float)
    assert parse_value("1e-3") == 1e-3


def test_parse_value_rejects_garbage():
    for bad in ("", "x", "1/0", "2..5", "inf", "-inf", "nan", "1e400"):
        with pytest.raises(ConfigError):
            parse_value(bad)


def test_suite_config_validation():
    with pytest.raises(ConfigError):
        small_config("no-such-suite")
    with pytest.raises(ConfigError):
        small_config("ortho-poly", tol=0.0)
    with pytest.raises(ConfigError):
        small_config("ortho-poly", ell_max=-1)
    # a non-finite tolerance would pass every case
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigError):
            small_config("ortho-poly", tol=bad)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("lambda1 = 2,5/2\nell-max = 3  # inline comment\n\ntol=1e-6\n")
    vals = read_config_file(str(path))
    assert vals == {"lambda1": "2,5/2", "ell_max": "3", "tol": "1e-6"}


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("wavelength = 7\n")
    with pytest.raises(ConfigError):
        read_config_file(str(path))


def resolve(argv, suite="kernels"):
    return _resolve_config(_build_parser().parse_args(["verify", suite, *argv]))


def test_option_vocabulary_is_unchanged():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {s for a in sub.choices["verify"]._actions for s in a.option_strings}
    assert flags == {
        "-h", "--help", "--lambda1", "--lambda2", "--lambda", "--n", "--ell-max",
        "--tol", "--exact", "--seed", "--report", "--csv",
        "--config",
    }
    assert set(VERIFY_OPTIONS) == {
        "lambda1", "lambda2", "lambda", "n", "ell_max", "tol", "exact",
        "seed", "report", "csv",
    }
    assert set(_EVAL_FORMS) == {
        "constant", "c_ell", "r_ell", "b", "b_const", "q_constant", "ktype", "psi_ktype",
    }
    assert _EVAL_HELP == (
        "constant C | c_ell L1 L2 ELL | r_ell L1 L2 ELL | b LAM | b_const LAM | "
        "q_constant N ELL LAM | ktype L1 L2 ELL --at 'Z1 Z2' | "
        "psi_ktype L1 L2 ELL --at 'Z1 Z2' | '(sum ...)' --at 'Z1 ...'"
    )


def test_readme_names_exactly_the_registered_suites():
    # a suite registered with _suite must be documented, and a documented
    # suite must exist
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"^Suites: ([^.]*)\.", text, re.MULTILINE).group(1)
    assert sorted(re.findall(r"`([^`]+)`", sentence)) == list(SUITES)


# key, a valid text, an invalid text (None where every text is valid); a
# switch flag takes no text and stands for the file line "key = yes"
OPTION_TEXTS = [
    ("lambda1", "-3/2,1", "2,x"),
    ("lambda2", "5/2,3", ""),
    ("lambda", "3.5,4", "inf"),
    ("n", "3,5", "3.5"),
    ("ell_max", "3", "2.5"),
    ("tol", "1e-6", "abc"),
    ("exact", "yes", "maybe"),
    ("seed", "7", "1.5"),
    ("report", "out/r.jsonl", None),
    ("csv", "yes", "sometimes"),
]


def test_option_texts_cover_every_option():
    assert [key for key, _, _ in OPTION_TEXTS] == list(VERIFY_OPTIONS)


@pytest.mark.parametrize("key, good, bad", OPTION_TEXTS)
def test_flag_and_file_line_read_alike(tmp_path, key, good, bad):
    flag = "--" + key.replace("_", "-")
    switch = key in ("exact", "csv")
    cfg = tmp_path / "run.cfg"

    def via_file(text):
        cfg.write_text(f"{key} = {text}\n")
        return resolve(["--config", str(cfg)])

    from_flag = resolve([flag] if switch else [flag, good])
    assert from_flag == via_file(good)
    assert from_flag != resolve([])
    if bad is None:
        return
    with pytest.raises(ConfigError) as from_file:
        via_file(bad)
    if not switch:
        with pytest.raises(ConfigError) as flag_error:
            resolve([flag, bad])
        assert str(flag_error.value) == str(from_file.value)


def test_negative_values_on_the_command_line(capsys):
    assert resolve(["--lambda1", "-3/2,1"]).lam1 == (Fraction(-3, 2), Fraction(1))
    assert main(["eval", "c_ell", "1/2", "-3/2", "1"]) == 0
    assert capsys.readouterr().out == "3.141592653589793\n"
    code = main(["verify", "kernels", "--lambda1", "-3,1", "--lambda2", "-2,2",
                 "--ell-max", "0"])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_non_finite_tol_is_a_config_error(capsys):
    code = main(["verify", "rc-plancherel", "--tol", "inf", "--ell-max", "0"])
    assert code == 2
    assert capsys.readouterr().err == "error: tolerance must be finite, got inf\n"


def test_nan_tol_reads_as_not_finite(capsys):
    code = main(["verify", "rc-plancherel", "--tol", "nan", "--ell-max", "0"])
    assert code == 2
    assert capsys.readouterr().err == "error: tolerance must be finite, got nan\n"


@pytest.mark.parametrize("token, word", [
    ("-inf", "positive"), ("-INF", "positive"), ("-Infinity", "positive"),
    ("-nan", "finite"), ("-NaN", "finite"),
])
def test_negative_non_finite_values_are_values_not_flags(token, word, tmp_path, capsys):
    # the flag and the config-file line give the same message
    code = main(["verify", "rc-plancherel", "--tol", token, "--ell-max", "0"])
    flag_err = capsys.readouterr().err
    assert flag_err.startswith(f"error: tolerance must be {word}, got ")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"tol = {token}\n")
    assert main(["verify", "rc-plancherel", "--config", str(cfg), "--ell-max", "0"]) == code == 2
    assert capsys.readouterr().err == flag_err


def test_no_flag_reads_as_a_negative_value():
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for sub in commands.choices.values():
        flags = [o for a in sub._actions for o in a.option_strings]
        assert [o for o in flags if not o.startswith("--")] == ["-h"]
        assert not [o for o in flags if NEGATIVE_VALUE.match(o)]


# ---------------------------------------------------------------------------
# suite runner


def test_ortho_poly_suite_passes():
    cfg = small_config(
        "ortho-poly",
        lam1=(Fraction(1), Fraction(2)),
        lam2=(Fraction(3, 2),),
        ell_max=3,
        tol=1e-10,
    )
    report = run_suite(cfg)
    assert report.failed_count == 0
    assert all(r["pass"] for r in report.records)


@pytest.mark.parametrize("ell_max", [0, 6, 12])
def test_ortho_poly_builds_one_exact_rule_per_weight_pair(monkeypatch, ell_max):
    # ell_max + 1 Gauss nodes integrate every P_ell^2 of the run exactly, so
    # the order comes from the degree, and each weight pair's rule serves
    # every ell: the 16 Jacobi pairs and two Gegenbauer pairs, (-1/2, -1/2)
    # and (2, 2), that are not Jacobi pairs too
    built = []

    def counted(spec, order):
        built.append((spec, order))
        return build_rule(spec, order)

    monkeypatch.setattr(holobreak.cli, "build_rule", counted)
    report = run_suite(SuiteConfig(suite="ortho-poly", exact=False,
                                   **{**SUITE_DEFAULTS["ortho-poly"], "ell_max": ell_max}))
    assert report.failed_count == 0
    assert len(report.records) == 20 * (ell_max + 1)
    assert len(built) == len(set(built)) == 18
    assert {order for _, order in built} == {ell_max + 1}


def test_quadrature_order_is_not_an_option(tmp_path, capsys):
    assert "order" not in {f.name for f in dataclasses.fields(SuiteConfig)}
    path = tmp_path / "run.cfg"
    path.write_text("order = 64\n")
    assert main(["verify", "ortho-poly", "--config", str(path)]) == 2
    assert "unknown key 'order'" in capsys.readouterr().err


def test_records_sorted_by_case_key():
    cfg = small_config("ortho-poly", ell_max=2)
    report = run_suite(cfg)
    keys = [r["case"] for r in report.records]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_record_fields_complete():
    cfg = small_config("ortho-poly", ell_max=0)
    report = run_suite(cfg)
    for r in report.records:
        for key in ("suite", "case", "params", "computed", "reference",
                    "abs_err", "rel_err", "pass", "ms"):
            assert key in r
        assert r["suite"] == "ortho-poly"


def test_kernels_adjoint_checked_where_b_has_a_pole():
    # n = 4, lam = 3 puts Gamma(0) in b_n; the adjoint constant and its
    # reference are both a finite 0 and are compared, not reported
    cfg = small_config("kernels", n=(4,), lam=(Fraction(3),), ell_max=2, tol=1e-10)
    report = run_suite(cfg)
    cases = [r for r in report.records if r["case"].startswith("adjoint-factorization/")]
    assert [r["case"] for r in cases] == [
        f"adjoint-factorization/n=4/lam=3/ell=0{ell}" for ell in range(3)
    ]
    for r in cases:
        assert r["pass"] and not r.get("note")
        assert r["reference"] is not None and r["abs_err"] == 0


def test_summary_counts_consistent():
    cfg = small_config("kernels", lam1=(Fraction(2),), lam2=(Fraction(2),), ell_max=1)
    report = run_suite(cfg)
    summary = report.summary()
    assert summary["cases"] == len(report.records)
    assert summary["passed"] + summary["failed"] == summary["cases"]
    assert summary["passed"] == sum(1 for r in report.records if r["pass"])


def test_rc_identities_exact_suite():
    cfg = small_config("rc-identities", exact=True, ell_max=2)
    report = run_suite(cfg)
    assert report.mode == "exact"
    assert report.failed_count == 0


def test_rc_identities_float_suite():
    cfg = small_config(
        "rc-identities", lam1=(2.2,), lam2=(2.0,), ell_max=2, tol=1e-9
    )
    report = run_suite(cfg)
    assert report.mode == "float"
    assert report.failed_count == 0


def test_rc_plancherel_matches_constant():
    cfg = small_config("rc-plancherel", ell_max=1)
    report = run_suite(cfg)
    assert report.failed_count == 0
    by_ell = {r["params"]["ell"]: r for r in report.records}
    assert abs(by_ell[0]["computed"] - float(c_ell(2, 2, 0))) < 1e-7


def test_bernstein_sato_suite_exact():
    cfg = small_config(
        "bernstein-sato", n=(3, 4), lam=(Fraction(7, 2),), ell_max=3, exact=True
    )
    report = run_suite(cfg)
    assert report.failed_count == 0
    assert all(r["rel_err"] is None for r in report.records)
    assert all(r["abs_err"] == 0.0 for r in report.records)


def test_bernstein_sato_rejects_decimal_weights():
    cfg = small_config("bernstein-sato", lam=(3.5,))
    with pytest.raises(ConfigError):
        run_suite(cfg)


def test_juhl_suite_reports_outside_unitary_range():
    cfg = small_config("juhl-plancherel", lam=(Fraction(2),), ell_max=0)
    report = run_suite(cfg)
    assert report.failed_count == 0
    notes = [r.get("note", "") for r in report.records if "cone-isometry" in r["case"]]
    assert any("unitary range" in note for note in notes)


# a family reports each grid point outside its domain, without failing it,
# and still checks the point just inside each boundary (that those points
# pass is required by test_l2_plancherel_passes_near_the_edge_of_the_weights)
@pytest.mark.parametrize("suite, family, grids, inside", [
    ("ortho-poly", "jacobi-norm",
     dict(lam1=(Fraction(0), Fraction(-1, 2), Fraction(1, 10)), lam2=(Fraction(2), Fraction(0))),
     {"jacobi-norm/alpha=-9/10/beta=1/ell=00"}),
    ("l2-plancherel", "transform-image", dict(lam=(Fraction(0), Fraction(-1, 2), Fraction(1, 2))),
     {f"transform-image/lam=1/2/probe={k}" for k in range(3)}),
    ("l2-plancherel", "fourier-isometry",
     dict(lam=(Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(11, 10))),
     {"fourier-isometry/lam=11/10"}),
    ("l2-plancherel", "b-ratio",
     dict(lam1=(Fraction(1), Fraction(0), Fraction(-1, 2)), lam2=(Fraction(2), Fraction(-1, 2))),
     {"b-ratio/lam1=-1/2/lam2=2/ell=00"}),
    # gegenbauer_norm(a) has weight (1 - x^2)^(a - 1/2): alpha = -3/4 lies
    # outside, alpha = -1/4 inside
    ("ortho-poly", "gegenbauer-norm", dict(lam1=(Fraction(1, 4), Fraction(3, 4))),
     {"gegenbauer-norm/alpha=-1/4/ell=00"}),
])
def test_points_outside_a_family_domain_are_reported(suite, family, grids, inside):
    report = run_suite(small_config(suite, ell_max=0, **grids))
    records = [r for r in report.records if r["case"].startswith(family + "/")]
    assert inside < {r["case"] for r in records}
    for r in records:
        if r["case"] in inside:
            assert "not checked" not in r.get("note", ""), r
        else:
            assert r["pass"] and r["reference"] is None, r
            assert r["note"].endswith(", not checked"), r


def test_l2_plancherel_passes_near_the_edge_of_the_weights(capsys):
    # transform-image folds x^(lam - 1) into its edge panel, and
    # fourier-isometry integrates over the disc with no cut-off, so both pass
    # as lam falls toward their domains' edges (0 and 1)
    code, lines = run_lines(capsys, [
        "verify", "l2-plancherel", "--lambda", "1/2,11/10,3/2,7/4",
        "--lambda1", "2", "--lambda2", "2", "--ell-max", "0",
    ])
    *records, summary = lines
    assert code == 0 and (summary["cases"], summary["failed"]) == (17, 0)
    unchecked = {r["case"] for r in records if "not checked" in r.get("note", "")}
    assert unchecked == {"fourier-isometry/lam=1/2"}
    assert all(r["pass"] for r in records)


def test_juhl_suite_checks_isometry_in_range():
    cfg = small_config("juhl-plancherel", lam=(Fraction(3),), ell_max=1)
    report = run_suite(cfg)
    assert report.failed_count == 0
    checked = [
        r for r in report.records
        if "cone-isometry" in r["case"] and r["rel_err"] is not None
    ]
    assert checked
    assert all(r["rel_err"] < 1e-7 for r in checked)


def test_juhl_suite_probes_every_dimension():
    # the isometry probe point has a coordinate for any dimension, so n >= 8
    # is checked like n <= 7 instead of failing outside the cone
    cfg = small_config(
        "juhl-plancherel", n=(3, 4, 5, 6, 7, 8), lam=(Fraction(19, 2),), ell_max=2
    )
    report = run_suite(cfg)
    assert len(report.records) == 36
    assert report.failed_count == 0
    checked = [r for r in report.records if r["case"].startswith("cone-isometry/n=8/")]
    assert len(checked) == 3 and all(r["rel_err"] < 1e-7 for r in checked)


def test_juhl_transform_ratio_is_checked_at_low_weights(capsys):
    # r_ell b_n = b_prev reads no Gegenbauer norm, so weights where alpha =
    # lam - (n - 1)/2 <= -1/2 are checked too; lam = 1/2 meets a Gamma pole
    code, lines = run_lines(capsys, [
        "verify", "juhl-plancherel", "--lambda", "1/4,1/2,3/4", "--n", "3,4", "--ell-max", "1",
    ])
    *records, summary = lines
    assert code == 0 and (summary["cases"], summary["failed"]) == (24, 0)
    ratios = [r for r in records if r["case"].startswith("transform-ratio/")]
    checked = [r for r in ratios if r["rel_err"] is not None]
    poles = [r for r in ratios if r.get("note", "").endswith(", reported only")]
    assert len(checked) == 8 and all(r["pass"] for r in checked)
    assert len(poles) == 4 and all(r["params"]["lam"] == "1/2" for r in poles)


def test_kernels_pole_collisions_reported_not_asserted():
    cfg = small_config("kernels", lam1=(Fraction(-1),), lam2=(Fraction(0),), ell_max=0)
    report = run_suite(cfg)
    assert report.failed_count == 0
    zero_class = [r for r in report.records if "zero-class" in r["case"]]
    assert zero_class
    assert all("reported only" in r.get("note", "") for r in zero_class)


def test_broken_case_becomes_failed_record(monkeypatch):
    # every jacobi-norm case raises; the gegenbauer-norm cases still run
    def broken(*args):
        raise RuntimeError("broken")

    monkeypatch.setattr(holobreak.cli, "jacobi_poly", broken)
    report = run_suite(small_config("ortho-poly", ell_max=0))
    bad = [r for r in report.records if not r["pass"]]
    assert bad and all(r["case"].startswith("jacobi-norm/") for r in bad)
    assert all(r["note"] == "RuntimeError: broken" for r in bad)
    assert len(bad) < len(report.records)


# ---------------------------------------------------------------------------
# determinism


def test_repeat_runs_hash_identically():
    cfg = small_config("rc-identities", ell_max=1, lam1=(2.0,), lam2=(2.5,))
    first = run_suite(cfg)
    second = run_suite(cfg)
    strip = lambda rs: [{k: v for k, v in r.items() if k != "ms"} for r in rs]
    assert strip(first.records) == strip(second.records)
    assert first.content_hash() == second.content_hash()


def test_hash_ignores_wall_time():
    cfg = small_config("ortho-poly", ell_max=0)
    report = run_suite(cfg)
    before = report.content_hash()
    for r in report.records:
        r["ms"] = 424242.0
    assert report.content_hash() == before


# sha256 of json.dumps([[case, params, pass, note], ...], sort_keys=True) for
# each suite at SUITE_DEFAULTS.  These fields hold no float results, so they
# are the same on every host and in both modes.
DEFAULT_CASE_HASHES = {
    "bernstein-sato": "2ea07171d58ae6c984ea9d65c56dcda23a7f11a54e469088ad51d76410e23b77",
    "juhl-plancherel": "5e503740d2817734787da2924204a2e938a21e5d550167c66688753414a3490c",
    "kernels": "4b6579f83c05ab19c25a9ff9000940edfef38a77a17a5dfed69331345868a669",
    "l2-plancherel": "ee4533bc213dd2d266bfc6531ee77bc30078f47512885438e063f9a953cf1ec7",
    "ortho-poly": "f1771e19ddf649ba6fc8c2cb9251c8ec4bcb7c3d1a38b2a8417f66198c9c43e4",
    "rc-identities": "fccb7a554584b8da82675fe87217de2bcdb937269861ce5fa70e36081e56e80c",
    "rc-plancherel": "3ab8cfbce415612cf8dd452c7906f9e14ada3575113e186ce6dd01d9170cb875",
}

# full content hashes of the exact runs at SUITE_DEFAULTS whose records hold
# only rationals, bools and exact zeros
DEFAULT_EXACT_HASHES = {
    "bernstein-sato": "0757f77a62d353bde063816b128ce212941e9b6cc38b3f29980555534bf7026b",
    "rc-identities": "ba8a71611344386d79e04272011d28e9850ecb8e2c1c1e73b4a26ce0ede49edd",
}


def test_exact_hashes_hold_with_every_memo_cut_to_one_entry(monkeypatch):
    # a run whose records depended on what a memo holds, or on the order in
    # which entries leave it, would lose its hash here
    def one_entry(cached):
        return functools.lru_cache(maxsize=1)(cached.__wrapped__)

    lattice, power = one_entry(term_algebra._lattice), one_entry(term_algebra._expand_base_power)
    waves, table = one_entry(juhl._wave_ladder), one_entry(rc_transform._exact_table)
    monkeypatch.setattr(term_algebra, "_lattice", lattice)
    monkeypatch.setattr(term_algebra, "_expand_base_power", power)
    monkeypatch.setattr(juhl, "_expand_base_power", power)
    monkeypatch.setattr(juhl, "_wave_ladder", waves)
    monkeypatch.setattr(rc_transform, "_exact_table", table)
    for suite, want in DEFAULT_EXACT_HASHES.items():
        report = run_suite(SuiteConfig(suite=suite, exact=True, **SUITE_DEFAULTS[suite]))
        assert report.content_hash() == want, suite
    for cached in (lattice, power, waves, table):
        info = cached.cache_info()
        assert info.currsize == 1 and info.misses > 1, info


def formula_hash(report) -> str:
    """The summary hash as the README states it."""
    payload = {
        "suite": report.suite,
        "mode": report.mode,
        "seed": report.seed,
        "records": [{k: v for k, v in r.items() if k != "ms"} for r in report.records],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def assert_record_contract(report, streamed: str) -> None:
    """The hash follows the formula; each streamed line parses back to its
    record, lists its keys sorted with ms last, and is the report file's line."""
    assert report.content_hash() == formula_hash(report)
    lines = streamed.splitlines()
    assert [json.loads(line) for line in lines] == report.records
    assert report.to_jsonl().splitlines()[:-1] == lines
    for line in lines:
        keys = list(json.loads(line))
        assert keys[-1] == "ms" and keys[:-1] == sorted(keys[:-1])


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("suite", SUITES)
def test_default_grids_keep_their_cases(suite, exact):
    stream = io.StringIO()
    report = run_suite(SuiteConfig(suite=suite, exact=exact, **SUITE_DEFAULTS[suite]),
                       stream=stream)
    rows = [[r["case"], r["params"], r["pass"], r.get("note", "")] for r in report.records]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == DEFAULT_CASE_HASHES[suite]
    if exact and suite in DEFAULT_EXACT_HASHES:
        assert report.content_hash() == DEFAULT_EXACT_HASHES[suite]
    assert_record_contract(report, stream.getvalue())


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072e-308]),
)
_TEXT = st.text(st.characters(codec=None), max_size=12)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10**60, 10**60),
                     _FLOATS, _TEXT)
# {"re", "im"} pairs in float and in exact mode, and lists of them
_VALUES = st.recursive(
    st.one_of(_SCALARS, st.fixed_dictionaries({"re": _FLOATS, "im": _FLOATS}),
              st.fixed_dictionaries({"re": _TEXT, "im": _TEXT})),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)
_RECORDS = st.fixed_dictionaries(
    {"suite": _TEXT, "case": _TEXT,
     "params": st.dictionaries(_TEXT, _VALUES, max_size=4),
     "computed": _VALUES, "reference": _VALUES,
     "abs_err": st.one_of(st.none(), _FLOATS), "rel_err": st.one_of(st.none(), _FLOATS),
     "pass": st.booleans()},
    optional={"note": _TEXT},
)


@given(record=_RECORDS)
@example(record={"suite": "kernels", "case": "a\u00e9\x00\u2028/\"\\", "params": {},
                 "computed": [1.5, {"re": -0.0, "im": math.inf}], "reference": 10**40,
                 "abs_err": math.nan, "rel_err": 5e-324, "pass": True, "note": "\t\u03bb"})
@settings(max_examples=300, deadline=None)
def test_record_writer_matches_json_dumps(record):
    want = json.dumps(record, sort_keys=True)
    assert _record_text(record, _json(record["params"])) == want
    fragments = [_fragment(k, record["params"][k]) for k in sorted(record["params"])]
    params = "{" + ", ".join(fragments) + "}"
    assert _record_text(record, params) == want
    report = VerificationReport(record["suite"], "float", 1)
    line = report.add(dict(record), params, 0.25)
    assert line == want[:-1] + ', "ms": 0.25}'
    assert report.content_hash() == formula_hash(report)
    assert report.to_jsonl().splitlines()[0] == line


@pytest.mark.parametrize("bad", [
    {1, 2}, object(), b"bytes", 1 + 2j, [1.0, {3}], {"re": 1.0, 2: 3.0},
])
def test_record_writer_rejects_what_json_dumps_rejects(bad):
    record = {"suite": "kernels", "case": "k", "params": {}, "computed": bad,
              "reference": None, "abs_err": None, "rel_err": None, "pass": False}
    with pytest.raises(Exception) as want:
        json.dumps(record, sort_keys=True)
    with pytest.raises(want.type) as got:
        _record_text(record, "{}")
    assert str(got.value) == str(want.value)
    with pytest.raises(want.type) as got:
        _fragment("x", bad)
    assert str(got.value) == str(want.value)


def test_empty_report_hashes_by_the_formula():
    report = VerificationReport("kernels", "float", 414213)
    assert report.content_hash() == formula_hash(report)
    assert report.content_hash() == hashlib.sha256(
        b'{"mode": "float", "records": [], "seed": 414213, "suite": "kernels"}').hexdigest()


# ---------------------------------------------------------------------------
# verify command: exit codes, files


def test_verify_bernstein_example_all_pass(capsys):
    code, lines = run_lines(
        capsys,
        ["verify", "bernstein-sato", "--n", "3", "--ell-max", "4",
         "--lambda", "7/2", "--exact"],
    )
    assert code == 0
    summary = lines[-1]
    assert summary["failed"] == 0
    assert summary["mode"] == "exact"
    assert summary["cases"] == 5


def test_verify_rc_identities_example_all_pass(capsys):
    code, lines = run_lines(
        capsys,
        ["verify", "rc-identities", "--lambda1", "2", "--lambda2", "2",
         "--ell-max", "4"],
    )
    assert code == 0
    assert lines[-1]["failed"] == 0


def test_b_ratio_at_a_negative_weight_past_gamma_overflow(capsys):
    # Gamma(lam1 + lam2 + 2 ell - 1) overflows and Gamma(lam1 - 1) < 0:
    # r_ell still has its finite value, so every b-ratio record passes
    code, lines = run_lines(
        capsys,
        ["verify", "l2-plancherel", "--lambda1", "-1/2", "--lambda2", "180",
         "--lambda", "3", "--ell-max", "1"],
    )
    assert code == 0
    ratios = [r for r in lines[:-1] if r["case"].startswith("b-ratio/")]
    assert len(ratios) == 2 and all(r["pass"] for r in ratios)


def test_b_ratio_past_the_double_range_compares_logs(capsys):
    # b(300) is about 1e520: each side is compared as (sign, log|value|)
    code, lines = run_lines(
        capsys, ["verify", "l2-plancherel", "--lambda1", "-1/2", "--lambda2", "300"],
    )
    assert code == 0 and lines[-1]["failed"] == 0
    ratios = [r for r in lines[:-1] if r["case"].startswith("b-ratio/")]
    assert len(ratios) == 3
    for r in ratios:
        assert r["pass"] and r["note"] == "compared as logs of |value|; signs +1 and +1"
        assert r["computed"] > 1000 and r["abs_err"] <= CLOSED_FORM_TOL


def _b_ratio_records(lam1, lam2, ell_max):
    grids = {**SUITE_DEFAULTS["l2-plancherel"], "lam1": (lam1,), "lam2": (lam2,), "ell_max": ell_max}
    cfg = SuiteConfig(suite="l2-plancherel", exact=True, seed=0, **grids)
    cases = _build_l2_plancherel(cfg, random.Random(0))
    return [c.run(*c.args) for c in cases if c.key.startswith("b-ratio/")]


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=-3, max_value=1000, max_denominator=4),
       st.fractions(min_value=190, max_value=1000, max_denominator=4),
       st.integers(0, 3))
def test_b_ratio_records_hold_at_large_weights(lam1, lam2, ell_max):
    # weights off the poles of b, one of them past the point where b leaves
    # the double range or near it
    assume(lam1.denominator > 1 or lam1 > 1)
    results = _b_ratio_records(lam1, lam2, ell_max)
    assert len(results) == ell_max + 1
    assert all(r.passed for r in results), results


def test_b_ratio_in_logs_fails_against_a_shifted_reference():
    # negative control: b(lam3 + 1) differs from b(lam3) by the factor
    # (lam3 - 1)/2, so the log comparison must fail
    lam1, lam2, ell = Fraction(-1, 2), 300, 1
    lam3 = lam1 + lam2 + 2 * ell
    factors = [log_r_ell(lam1, lam2, ell), log_b_const(lam1), log_b_const(lam2)]
    got = math.prod(s for s, _ in factors), math.fsum(x for _, x in factors)
    assert _close_logs(got, log_b_const(lam3), CLOSED_FORM_TOL).passed
    shifted = _close_logs(got, log_b_const(lam3 + 1), CLOSED_FORM_TOL)
    assert not shifted.passed
    assert shifted.abs_err == pytest.approx(math.log((lam3 - 1) / 2))


def test_b_ratio_in_logs_fails_on_a_sign_mismatch():
    result = _close_logs((1.0, 1200.0), (-1.0, 1200.0), CLOSED_FORM_TOL)
    assert not result.passed and result.abs_err == 0.0
    assert result.note == "compared as logs of |value|; signs +1 and -1"


def test_rc_routes_record_the_route_that_differs(capsys, monkeypatch):
    real = holobreak.cli.rc_apply

    def doubled_variant(params, f, route="coefficients"):
        g = real(params, f, route)
        return scale(g, 2) if route == "variant" else g

    monkeypatch.setattr(holobreak.cli, "rc_apply", doubled_variant)
    code, lines = run_lines(
        capsys, ["verify", "rc-identities", "--lambda1", "2", "--lambda2", "3", "--ell-max", "1"],
    )
    assert code == 1
    routes = [r for r in lines[:-1] if r["case"].startswith("rc-routes/")]
    assert len(routes) == lines[-1]["failed"] == 6
    assert all(r["note"] == "route variant differs" and r["computed"] is False for r in routes)


def test_bernstein_sato_records_nonzero_higher_rungs(capsys, monkeypatch):
    # one more d_n^2 in the order-2 operator adds 2 lam Q^(-lam-1) to its
    # image: the peel leaves a rung j = 1
    real = juhl.gegenbauer_a
    monkeypatch.setattr(juhl, "gegenbauer_a",
                        lambda ell, k, alpha: real(ell, k, alpha) + (ell == 2 and k == 0))
    q0, higher = juhl.bernstein_sato_verify(juhl.JuhlParams(3, Fraction(7, 2), 2))
    assert higher == [(1, qqi(7))]
    code, lines = run_lines(
        capsys, ["verify", "bernstein-sato", "--n", "3", "--lambda", "7/2", "--ell-max", "2"],
    )
    assert code == 1
    failed = [r for r in lines[:-1] if not r["pass"]]
    assert [r["case"] for r in failed] == ["eigen-constant/n=3/lam=7/2/ell=02"]
    assert failed[0]["note"] == "nonzero higher rungs: j=1"


def test_encode_raises_on_a_value_no_case_returns():
    # _close and its siblings encode inside the case, so a check that
    # returned such a value would become a failed record
    with pytest.raises(TypeError, match="no record encoding for tuple"):
        _encode((1, 2))


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    # the disc norm meets b_const to rounding, so a norm scaled by 2 stands
    # in for a failing case
    norm = holobreak.cli.halfplane_norm_sq
    monkeypatch.setattr(holobreak.cli, "halfplane_norm_sq", lambda G, lam: 2 * norm(G, lam))
    code, lines = run_lines(
        capsys,
        ["verify", "l2-plancherel", "--lambda", "3", "--ell-max", "0"],
    )
    assert code == 1
    assert lines[-1]["failed"] == 1


def test_verify_empty_grid_is_config_error(capsys):
    code = main(["verify", "ortho-poly", "--lambda1", ""])
    assert code == 2
    assert "empty parameter grid" in capsys.readouterr().err


@pytest.mark.parametrize("key, text, repeated", [
    ("lambda1", "2,4/2", "2"), ("lambda2", "2, 3, 2.0", "2.0"), ("n", "3,4,3", "3"),
])
def test_repeated_grid_value_is_config_error(key, text, repeated, tmp_path, capsys):
    # a flag and a config-file line go through the same reader
    want = f"error: {key} grid repeats the value {repeated}\n"
    assert main(["verify", "rc-plancherel", f"--{key}", text]) == 2
    assert capsys.readouterr() == ("", want)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n")
    assert main(["verify", "rc-plancherel", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", want)


@pytest.mark.parametrize("suite, argv", [
    ("juhl-plancherel", ["--n", "2"]),
    ("bernstein-sato", ["--n", "2"]),
    ("bernstein-sato", ["--n", "3,2", "--ell-max", "0"]),
    ("kernels", ["--n", "2", "--lambda", "3"]),
])
def test_dimension_below_three_is_config_error(suite, argv, capsys):
    # every suite with an n axis refuses the whole grid before any case runs
    assert main(["verify", suite, *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{suite} needs dimensions n >= 3, got 2" in err


def test_verify_unknown_suite_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_slash_parameters_trigger_exact_mode(capsys):
    code, lines = run_lines(
        capsys,
        ["verify", "rc-identities", "--lambda1", "5/2", "--lambda2", "2",
         "--ell-max", "1"],
    )
    assert code == 0
    assert lines[-1]["mode"] == "exact"


def test_exact_flag_rejects_decimals(capsys):
    code = main(["verify", "rc-identities", "--exact", "--lambda1", "2.5"])
    assert code == 2
    assert "rational" in capsys.readouterr().err


def test_config_file_merge_and_override(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("lambda1 = 2\nlambda2 = 2\nell-max = 0\nseed = 99\n")
    code, lines = run_lines(
        capsys,
        ["verify", "rc-identities", "--config", str(path), "--ell-max", "1"],
    )
    assert code == 0
    summary = lines[-1]
    assert summary["seed"] == 99
    ells = {r["params"]["ell"] for r in lines[:-1]}
    assert ells == {0, 1}


def test_report_and_csv_files(tmp_path, capsys):
    report_path = tmp_path / "out" / "kernels.jsonl"
    code = main(
        ["verify", "kernels", "--lambda1", "2", "--lambda2", "2", "--ell-max", "0",
         "--report", str(report_path), "--csv"]
    )
    capsys.readouterr()
    assert code == 0
    stored = [json.loads(line) for line in report_path.read_text().splitlines()]
    assert stored[-1].get("summary") is True
    assert len(stored) == stored[-1]["cases"] + 1
    csv_path = report_path.with_suffix(".csv")
    rows = csv_path.read_text().splitlines()
    assert rows[0].startswith("suite,case,params")
    assert len(rows) == stored[-1]["cases"] + 1


def test_csv_without_report_is_config_error(capsys):
    code = main(["verify", "kernels", "--csv", "--ell-max", "0"])
    assert code == 2
    assert "--report" in capsys.readouterr().err


def test_stdout_matches_report_file(tmp_path, capsys):
    report_path = tmp_path / "r.jsonl"
    code = main(
        ["verify", "ortho-poly", "--lambda1", "2", "--lambda2", "2",
         "--ell-max", "0", "--report", str(report_path)]
    )
    assert code == 0
    assert capsys.readouterr().out == report_path.read_text()


# ---------------------------------------------------------------------------
# eval command


def test_eval_named_constant(capsys):
    assert main(["eval", "c_ell", "2", "2", "0"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("0.1666666")
    assert out.endswith("= 1/6")


def test_eval_c_ell_is_exact_with_one_integer_weight(capsys):
    # Gamma(3 + 1) is a factorial and Gamma(7/2) / Gamma(11/2) a Pochhammer
    # quotient, so c_ell(5/2, 3, 1) is rational
    assert main(["eval", "c_ell", "5/2", "3", "1"]) == 0
    assert capsys.readouterr().out == "0.05860805860805861 = 16/273\n"


def test_eval_constant_integer(capsys):
    assert main(["eval", "constant", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_eval_b_alias(capsys):
    assert main(["eval", "b", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["eval", "b_const", "3"]) == 0
    assert capsys.readouterr().out == first
    assert abs(float(first) - math.pi / 2) < 1e-12


def test_eval_q_constant(capsys):
    assert main(["eval", "q_constant", "3", "1", "2"]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_eval_json_output(capsys):
    assert main(["eval", "c_ell", "2", "2", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["value_re"] - 1 / 6) < 1e-12
    assert payload["value_im"] == 0.0


def test_eval_textual_sum(capsys):
    text = "(sum 1 (term 2 (mono 1)))"
    assert main(["eval", text, "--at", "0.5+1j"]) == 0
    value = complex(capsys.readouterr().out.strip())
    assert abs(value - (1 + 2j)) < 1e-12


def test_eval_psi_ktype_matches_library(capsys):
    assert main(["eval", "psi_ktype", "2", "2", "1", "--at", "0.3+1.2j 0.1+0.9j"]) == 0
    got = complex(capsys.readouterr().out.strip())
    want = evaluate(
        psi_ktype_closed_form(RCParams(2, 2, 1)), (0.3 + 1.2j, 0.1 + 0.9j)
    )
    assert abs(got - want) < 1e-12


def test_eval_parse_error_reports_position(capsys):
    code = main(["eval", "(sum 1 (term x (mono 1)))", "--at", "1j"])
    assert code == 2
    err = capsys.readouterr().err
    assert "parse error at character 13" in err


def test_eval_zero_denominator_is_parse_error(capsys):
    code = main(["eval", "(sum 1 (term 1/0 (mono 1)))", "--at", "1j"])
    assert code == 2
    assert "parse error at character 13" in capsys.readouterr().err


def test_eval_pole_surfaces_verbatim(capsys):
    code = main(["eval", "c_ell", "-1", "2", "0"])
    assert code == 2
    assert "pole" in capsys.readouterr().err


def test_eval_c_ell_on_the_line_t_zero(capsys):
    assert main(["eval", "c_ell", "1/2", "-1.5", "1"]) == 0
    assert capsys.readouterr().out == "3.141592653589793\n"


def test_eval_overflow_is_an_error_not_a_traceback(capsys):
    # r_ell(600.5, 600.5, 1) is about 2.0e369, beyond the double range
    code = main(["eval", "r_ell", "600.5", "600.5", "1"])
    assert code == 2
    assert "overflow" in capsys.readouterr().err


@pytest.mark.parametrize("argv, out", [
    (["c_ell", "90.5", "90.5", "1"], "5.478694053960346e-54\n"),
    (["r_ell", "150.5", "150.5", "1"], "1.8854296364772839e+96\n"),
    (["b", "180.5"], "4.8335339460104204e+272\n"),
])
def test_eval_finite_constant_past_gamma_overflow(argv, out, capsys):
    assert main(["eval", *argv]) == 0
    assert capsys.readouterr().out == out


def test_eval_branch_cut_is_an_error_not_a_traceback(capsys):
    text = "(sum 1 (term 1 (mono 0) (pow (base ((1) 1) ((0) 1)) 1/2)))"
    code = main(["eval", text, "--at", "-2"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: argument of (-1+0j) within 1e-10 of the principal cut\n"
    )


def test_eval_non_finite_value_is_an_error(capsys):
    code = main(["eval", "(sum 1 (term 1e300 (mono 1)))", "--at", "1e200"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "value (inf+0j) at ((1e+200+0j),) is not finite" in captured.err


def test_eval_q_constant_past_the_double_range_is_an_error(capsys):
    # 2^400/400! underflows to 0.0 and each Pochhammer product to inf, so
    # the float product was nan, printed with exit code 0
    assert main(["eval", "q_constant", "3", "400", "1e300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "q_constant(3, 400, 1e+300) is not finite" in captured.err
    assert main(["eval", "q_constant", "3", "2", "2.5"]) == 0
    assert capsys.readouterr().out == "210.0\n"


# q_constant(3, 200, 200) is an integer of 718 digits; a rational past the
# double range prints as p/q alone.  --json prints a pair of floats, so it
# still fails on both
_HUGE_RATIONAL = "1" * 400 + "/3"


@pytest.mark.parametrize("argv, out, json_code", [
    (["q_constant", "3", "200", "200"], f"{juhl.q_constant(3, 200, Fraction(200))}\n", 2),
    (["constant", _HUGE_RATIONAL], f"{_HUGE_RATIONAL}\n", 2),
    (["constant", "1/3"], "0.3333333333333333 = 1/3\n", 0),
], ids=["integer", "rational", "finite"])
def test_eval_prints_an_exact_value_exactly(argv, out, json_code, capsys):
    assert main(["eval", *argv]) == 0
    assert capsys.readouterr().out == out
    assert main(["eval", *argv, "--json"]) == json_code
    captured = capsys.readouterr()
    if json_code:
        assert captured.out == ""
        assert captured.err == (
            "error: numeric overflow (integer division result too large for a float)\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
def test_eval_exact_value_past_the_digit_limit_is_an_error(capsys):
    # 5,251 digits, past Python's default limit of 4,300
    assert main(["eval", "q_constant", "3", "1200", "1200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: exact value too long to print (Exceeds the limit (4300 digits)")


@pytest.mark.parametrize("argv, message", [
    (["c_ell", "2", "2"], "c_ell takes lam1 lam2 ell, got 2 arguments"),
    (["b", "3", "--at", "1j"], "--at does not apply to b"),
    (["ktype", "2", "3", "1"], "ktype needs --at with two coordinates"),
    (["ktype", "2", "3", "1", "--at", "1+1j"], "ktype needs a two-coordinate point"),
    (["c_ell", "2", "2", "1.5"], "ell must be an integer, got '1.5'"),
    (["(sum 1 (term 2 (mono 1)))", "--at", "x"], "cannot read coordinate 'x'"),
    (["(sum 1 (term 2 (mono 1)))", "--at", " , "], "empty evaluation point"),
    (["(sum 1 (term 2 (mono 1)))"], "textual sums need --at with one coordinate per variable"),
])
def test_eval_usage_errors_exit_2_with_a_message(argv, message, capsys):
    assert main(["eval", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_eval_point_arity_mismatch(capsys):
    code = main(["eval", "(sum 2 (term 1 (mono 1 0)))", "--at", "1j"])
    assert code == 2
    assert "arity" in capsys.readouterr().err


@pytest.mark.parametrize("coord", ["nan", "inf", "1e400", "1+nanj"])
def test_eval_rejects_non_finite_point(capsys, coord):
    code = main(["eval", "(sum 1 (term 2 (mono 1)))", "--at", coord])
    assert code == 2
    assert "not finite" in capsys.readouterr().err


def test_eval_unknown_form_lists_choices(capsys):
    code = main(["eval", "frobnicate", "1"])
    assert code == 2
    assert "c_ell" in capsys.readouterr().err


def test_module_entry_point():
    # the child imports holobreak from wherever this process found it
    src = str(Path(holobreak.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "holobreak.cli", "eval", "constant", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"
