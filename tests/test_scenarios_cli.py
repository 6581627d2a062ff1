import json
import pathlib
import resource
import subprocess
import sys
from math import comb

import numpy as np
import pytest

from charp import gcoh, linalg, scenarios
from charp.config import Budget, _FAST, load_config
from charp.doldkan import natural_level_map
from charp.groups import ElementaryAbelian
from charp.linalg import Mat, diagonalize
from charp.rings import galois_field, integers_mod, prime_field, ring_make
from helpers import (f4_square_pairs_oracle, splitting_value_oracle,
                     v_action_oracle)


FROZEN_IDS = {
    "decalage", "sym-cohomology", "four-term-exact", "norm-cokernel-zp2",
    "cartier", "omega-trunc-vs-symp", "steenrod-p0", "steenrod-p1",
    "witt-bockstein-agree", "algebra-bockstein", "witt-identity", "ghost-v",
    "additive-cohomology-dims", "lattice-vanishing", "semidirect-agree",
    "weights-1", "weights-2", "weights-3", "weights-4",
    "borel-1", "borel-2", "borel-3", "field-search",
    "alpha-sl2-f4", "alpha-u2-f2-zero", "alpha-ta-f9", "chi1-iso",
    "integral-facts-p2", "bock-alpha-nonzero-p2",
}


# computed, expected and pass of every `charp run-all` report (fast profile,
# default parameters), one scenario a line; a change to a report is a
# change to this file
RECORDED = pathlib.Path(__file__).parent / "data" / "run_all_fast.json"


def test_registry_is_the_frozen_surface():
    assert set(scenarios.REGISTRY) == FROZEN_IDS


@pytest.mark.parametrize("profile", ["fast", "full"])
def test_run_all_reports_what_was_recorded(profile):
    # both profiles give the reports recorded in the fast one
    got = [{key: r[key] for key in ("id", "computed", "expected", "pass")}
           for r in scenarios.run_all(budget=load_config(profile=profile))]
    want = json.loads(RECORDED.read_text())
    assert [r["id"] for r in got] == [r["id"] for r in want]
    for g, w in zip(got, want):
        assert g == w, g["id"]


def test_unknown_scenario():
    with pytest.raises(KeyError):
        scenarios.run("no-such-scenario")


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        scenarios.run("witt-identity", {"quark": 7})


def test_report_schema():
    rep = scenarios.run("witt-identity", {"p": 3})
    for key in ("id", "params", "computed", "expected", "pass", "skipped",
                "runtime_ms", "version"):
        assert key in rep
    for item in rep["expected"].values():
        assert item["provenance"] in ("paper", "trivial", "derived")
    json.dumps(rep)   # serialisable


def test_reports_deterministic_modulo_runtime():
    a = scenarios.run("ghost-v", {"p": 3, "seed": 11})
    b = scenarios.run("ghost-v", {"p": 3, "seed": 11})
    a.pop("runtime_ms")
    b.pop("runtime_ms")
    assert a == b


def test_budget_exceeded_is_skipped_not_passed():
    tiny = Budget(_FAST)
    tiny["max_level"] = 1
    rep = scenarios.run("decalage", {"p": 3}, budget=tiny)
    assert rep["skipped"] is True and rep["pass"] is False
    assert scenarios.exit_code([rep]) == 0   # skipped is not a failure


@pytest.mark.parametrize("id_", ["chi1-iso", "alpha-ta-f9"])
def test_group_table_over_budget_is_skipped(id_):
    # (Z/5)^8 has 390,625 elements: its Cayley table would hold 1.5e11
    # cells, so the group is refused before anything is allocated
    rep = scenarios.run(id_, {"p": 5})
    assert rep["skipped"] is True and rep["pass"] is False
    assert "group order 390625" in rep["skip_reason"]


def test_run_all_empty_filter():
    reports = scenarios.run_all("no-such-tag")
    assert reports == []
    assert scenarios.exit_code(reports) == 0


def test_run_all_combinatorics_tag():
    reports = scenarios.run_all("combinatorics")
    ids = {r["id"] for r in reports}
    assert {"weights-1", "weights-2", "weights-3", "weights-4",
            "borel-1", "borel-2", "borel-3", "field-search"} <= ids
    assert all(r["pass"] for r in reports)


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "charp.cli", *args],
                          capture_output=True, text=True)


def test_cli_list():
    out = _cli("list")
    assert out.returncode == 0
    assert "witt-identity" in out.stdout


def test_cli_run_json_and_out(tmp_path):
    target = tmp_path / "report.json"
    out = _cli("run", "witt-identity", "--p", "2", "--json",
               "--out", str(target))
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["pass"] is True and rep["params"]["p"] == 2
    ondisk = json.loads(target.read_text())
    assert ondisk["id"] == "witt-identity"


def test_cli_usage_errors():
    assert _cli("run", "definitely-not-a-scenario").returncode == 2
    assert _cli("run", "witt-identity", "--dim", "3").returncode == 2
    assert _cli("run", "witt-identity", "--q", "3").returncode == 2
    assert _cli().returncode == 2
    # a --p that is not prime is refused before any compute
    for args in (("borel-3", "--p", "9"), ("weights-1", "--p", "0"),
                 ("witt-identity", "--p", "1"), ("decalage", "--p", "4")):
        out = _cli("run", *args)
        assert out.returncode == 2 and "is not prime" in out.stderr, args
    # a negative --dim, and a --p below the scenario's smallest prime
    for args, msg in ((("sym-cohomology", "--dim", "-1"), "is negative"),
                      (("cartier", "--dim", "-3"), "is negative"),
                      (("alpha-ta-f9", "--p", "2"), "needs --p >= 3")):
        out = _cli("run", *args)
        assert out.returncode == 2 and msg in out.stderr, args
        assert out.stderr.count("\n") == 1 and not out.stdout, args


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


# runs that once ended in a traceback (an int64 rank of a multiplicity
# pattern, a dense norm map at p = 127, a Sym^p monomial table past the
# address space, in weights-1 and in algebra-bockstein's d_Gamma) or
# reached their budget skip only after 20 s
@pytest.mark.parametrize("args", [("four-term-exact", "--p", "37"),
                                  ("four-term-exact", "--p", "127"),
                                  ("four-term-exact", "--p", "1009"),
                                  ("four-term-exact", "--dim", "1000"),
                                  ("norm-cokernel-zp2", "--p", "37"),
                                  ("norm-cokernel-zp2", "--p", "127"),
                                  ("norm-cokernel-zp2", "--dim", "1000"),
                                  ("steenrod-p0", "--p", "7919"),
                                  ("weights-1", "--p", "101"),
                                  ("algebra-bockstein", "--p", "7"),
                                  ("algebra-bockstein", "--p", "11")])
def test_former_tracebacks_end_in_a_report(args):
    out = subprocess.run([sys.executable, "-m", "charp.cli", "run", *args,
                          "--json"], capture_output=True, text=True,
                         timeout=60, preexec_fn=_cap_address_space)
    assert out.returncode in (0, 1, 2), out.stderr
    assert "Traceback" not in out.stderr
    assert json.loads(out.stdout)["id"] == args[0]


def test_torus_elements_take_p_minus_one_units():
    assert [len(t) for t in scenarios._torus_elements(
        5, ring_make(galois_field(2, 2)))] == [4] * 81


@pytest.mark.parametrize("case", ["class-p2", "class-p2-det-x", "V-F3",
                                  "V-F5", "V-F9", "chi1-pairs-p2"])
def test_alpha_ingredients_match_hand_built_oracles(case, monkeypatch):
    if case.startswith("class"):
        # the four matrices of bock-alpha-nonzero-p2 have determinant 1,
        # so Lambda^2 is trivial on them; a torus element with det x is not
        F4 = ring_make(galois_field(2, 2))
        x = F4.from_coeffs([0, 1])
        rho = scenarios._of_rho_V(F4, x)
        if case == "class-p2-det-x":
            rho["t"] = Mat(F4, [[x, F4.zero], [F4.zero, F4.one]])
        got = scenarios._of_alpha_values(rho)
        for key, g in rho.items():
            assert np.array_equal(got[key], splitting_value_oracle(F4, g))
    elif case.startswith("V"):
        p, spec = {"V-F3": (3, prime_field(3)), "V-F5": (5, prime_field(5)),
                   "V-F9": (3, galois_field(3, 2))}[case]
        F = ring_make(spec)
        A = ElementaryAbelian(p, (p - 1) * spec.r)
        V = scenarios._v_module(p, A, F)
        assert all(V.act(a) == v_action_oracle(p, A, F, a)
                   for a in A.elements())
    else:
        # the pairs integral-facts-p2 averages over, on the tower's F_4
        seen, real = [], gcoh.invariant_subspace
        monkeypatch.setattr(gcoh, "invariant_subspace", lambda eng, i, pairs:
                            seen.append(pairs) or real(eng, i, pairs))
        _, _, _, A2, _ = scenarios._chi1_invariants(2, None)
        want = f4_square_pairs_oracle(scenarios._of_tower_data()[0], A2)
        assert len(seen[0]) == len(want) == 3
        for (perm, chi), (perm_w, chi_w) in zip(seen[0], want):
            assert np.array_equal(perm, perm_w) and chi == chi_w


def test_norm_cokernel_matches_dense_diagonalize():
    # the scenario reads the exponents off N's diagonal; a Smith form of
    # the dense N is the oracle
    for p in (3, 5, 7):
        ring = ring_make(integers_mod(p, 2))
        for dim in (1, 2, 3):
            N = natural_level_map("N", ring, dim, p).dense()
            report = scenarios.run("norm-cokernel-zp2", {"p": p, "dim": dim})
            assert report["computed"]["cokernel_exponents"] == \
                list(diagonalize(N).cokernel().exponents)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cartier_expectations_follow_dim(p):
    # weight p has H^0 = H^1 = the twist of V (dim V = dim); the
    # truncation's top degree adds Lambda^p V, which at p = 2 is H^1's too
    truncated = []
    for dim in range(1, 7):
        report = scenarios.run("cartier", {"p": p, "dim": dim})
        assert report["pass"] and not report["skipped"], dim
        assert report["computed"]["dims_weight_p"] == \
            [dim, dim] + [0] * (p - 1)
        truncated.append(report["computed"]["dims_truncated"])
    if p == 2:
        assert truncated == [[1, 1], [2, 3], [3, 6], [4, 10], [5, 15],
                             [6, 21]]
    else:
        assert truncated == [[dim, dim] + [0] * (p - 3) + [comb(dim, p)]
                             for dim in range(1, 7)]


def test_scenarios_leave_numpy_ma_unimported():
    # a bare np.unique imports numpy.ma on its first call (about 6 ms of a
    # pass); src/ makes none, so a fresh process never loads it
    code = ("import sys\n"
            "from charp import scenarios\n"
            "for id_ in ('alpha-ta-f9', 'sym-cohomology', "
            "'algebra-bockstein'):\n"
            "    assert scenarios.run(id_)['pass'], id_\n"
            "assert 'numpy.ma' not in sys.modules\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_steenrod_scenarios_reduce_no_array_twice(monkeypatch):
    # each complex builds a cohomology slice once per degree, and
    # derived_sym_model reuses the kernel and kernel solver of truncate_le,
    # so no elimination sees the same array with the same transform flag
    # twice.  alpha-ta-f9 runs at p = 3: at p = 5 its group is over the
    # default budget.  Keys are array identities, not contents:
    # steenrod-p0 reduces equal 5 x 1 d(0)s of two unrelated complexes.
    # The arrays stay alive, so no identity is reused.
    keys, arrays = [], []

    def counted(name, fn):
        def wrapper(mat, *args, **kwargs):
            arrays.append(mat.data)
            keys.append((name, id(mat.data),
                         args[0] if args else kwargs.get("transform", True)))
            return fn(mat, *args, **kwargs)
        return wrapper

    for name in ("echelon", "diagonalize"):
        fn = getattr(linalg, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("charp") and \
                    getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted(name, fn))
    for id_, p in (("witt-bockstein-agree", 5), ("steenrod-p0", 5),
                   ("algebra-bockstein", 5), ("alpha-ta-f9", 3)):
        assert scenarios.run(id_, {"p": p})["pass"], id_
    assert keys and len(set(keys)) == len(keys)


def test_config_file_overrides(tmp_path):
    cfg = tmp_path / "budget.cfg"
    cfg.write_text("max_level = 3\nmax_terms = 5\n")
    budget = load_config(str(cfg))
    assert budget.max_level == 3 and budget.max_terms == 5
    cfg2 = tmp_path / "budget.toml"
    cfg2.write_text('max_group_order = 123\nmax_cells = "77"\n')
    budget2 = load_config(str(cfg2))
    assert budget2.max_group_order == 123 and budget2.max_cells == 77
    # a typo key, a non-integer value, a removed key and a missing file are
    # usage errors
    bad = tmp_path / "typo.cfg"
    for text in ("max_cell = 5\n", "max_level = three\n",
                 "stretch_p5 = true\n", "max_level\n"):
        bad.write_text(text)
        with pytest.raises(ValueError):
            load_config(str(bad))
        out = _cli("--config", str(bad), "list")
        assert out.returncode == 2 and "charp:" in out.stderr
    missing = str(tmp_path / "missing.cfg")
    with pytest.raises(OSError):
        load_config(missing)
    out = _cli("--config", missing, "list")
    assert out.returncode == 2 and "charp:" in out.stderr


def test_profile_selection(monkeypatch):
    monkeypatch.setenv("CHARP_BUDGET_PROFILE", "full")
    budget = load_config()
    assert budget.profile == "full" and \
        budget.max_cells > load_config(profile="fast").max_cells
    monkeypatch.setenv("CHARP_BUDGET_PROFILE", "bogus")
    with pytest.raises(ValueError):
        load_config()


def test_run_all_fast_under_two_minutes():
    import time
    t0 = time.time()
    reports = scenarios.run_all("fast")
    elapsed = time.time() - t0
    assert reports and all(r["pass"] for r in reports)
    assert elapsed < 120, f"fast scenarios took {elapsed:.0f}s"
