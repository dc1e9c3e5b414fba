"""End-to-end command line behaviour, driven in process through main()."""

import copy
import json
from fractions import Fraction

import pytest

from wqhopf.catalog import builtin
from wqhopf.cli import RunConfig, UsageError, main
from wqhopf.files import category_to_json, load_json, save_json

MACHINE_KEYS = {"id", "status", "worst_deviation", "witness_indices"}


def machine_lines(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.splitlines() if line]


def test_verify_builtin_passes(capsys):
    assert main(["verify", "--builtin", "fibonacci"]) == 0
    out = capsys.readouterr().out
    assert "OK:" in out and "category: fibonacci" in out


def test_verify_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "fib.json"
    save_json(str(path), category_to_json(builtin("fibonacci").category))
    assert main(["verify", str(path), "--report", "machine"]) == 0
    rows = machine_lines(capsys)
    assert rows and all(set(r) == MACHINE_KEYS for r in rows)
    assert all(r["status"] == "pass" for r in rows)


def test_verify_detects_broken_data(tmp_path, capsys):
    obj = category_to_json(builtin("fibonacci").category)
    for entry in obj["F"]:
        if entry["labels"] == ["tau", "tau", "tau", "tau"]:
            entry["matrix"][0][0] = {"conductor": 1, "coeffs": ["1"]}
    path = tmp_path / "bad.json"
    save_json(str(path), obj)
    assert main(["verify", str(path)]) == 1
    assert "VIOLATIONS" in capsys.readouterr().out


@pytest.mark.parametrize("bad", [
    None,
    {"conductor": 1, "coeffs": [None]},
    {"re": None},
    {"conductor": 5, "coeffs": "12"},
], ids=["null", "null-coeff", "null-re", "string-coeffs"])
def test_malformed_scalar_is_input_error(tmp_path, capsys, bad):
    obj = category_to_json(builtin("fibonacci").category)
    entry = obj["F"][0]
    assert entry["labels"] == ["tau", "tau", "tau", "1"]
    entry["matrix"] = [[bad]]
    path = tmp_path / "bad.json"
    save_json(str(path), obj)
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def _f_matrix_file(matrix):
    def argv(tmp_path):
        obj = category_to_json(builtin("fibonacci").category)
        obj["F"][0]["matrix"] = matrix
        path = tmp_path / "bad.json"
        save_json(str(path), obj)
        return ["verify", str(path)]
    return argv


def _ragged_phi_dump(tmp_path):
    path = tmp_path / "h.json"
    assert main(["reconstruct", "--builtin", "vec_zn", "--n", "2", "--q", "1",
                 "-o", str(path)]) == 0
    obj = load_json(str(path))
    entry = next(e for e in obj["phi"] if e["key"] == ["1", "1", "1"])
    entry["matrix"][1].pop()
    save_json(str(path), obj)
    return ["check-hopf", str(path)]


@pytest.mark.parametrize("argv", [
    _f_matrix_file(5), _f_matrix_file([5]), _f_matrix_file([]),
    _ragged_phi_dump,
], ids=["scalar", "flat-list", "empty", "ragged-phi-row"])
def test_malformed_matrix_is_input_error(tmp_path, capsys, argv):
    args = argv(tmp_path)
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "rows of one length" in err
    assert "Traceback" not in err


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_builtin_is_input_error(capsys):
    assert main(["verify", "--builtin", "nosuch"]) == 2
    assert main(["verify", "--builtin", "vec_zn"]) == 2  # missing --n


def test_builtin_and_path_are_exclusive(tmp_path, capsys):
    path = tmp_path / "x.json"
    save_json(str(path), category_to_json(builtin("svec").category))
    assert main(["verify", str(path), "--builtin", "svec"]) == 2
    assert main(["verify"]) == 2


def test_tolerance_backend_invariant(capsys):
    assert main(["verify", "--builtin", "svec", "--tol", "0.5"]) == 2
    assert main(["verify", "--builtin", "svec", "--backend", "approx",
                 "--tol", "0"]) == 2
    with pytest.raises(UsageError):
        RunConfig(command="verify", backend="approx", tolerance=0.0)


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_is_usage_error(tmp_path, capsys, tol):
    dump = tmp_path / "ha.json"
    assert main(["reconstruct", "--builtin", "vec_zn", "--n", "2", "--q", "1",
                 "--backend", "approx", "-o", str(dump)]) == 0
    capsys.readouterr()
    assert main(["check-hopf", str(dump), "--backend", "approx",
                 f"--tol={tol}"]) == 2
    assert main(["verify", "--builtin", "svec", "--backend", "approx",
                 f"--tol={tol}"]) == 2
    assert "finite" in capsys.readouterr().err


def test_missing_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_dims_minimal_output(capsys):
    assert main(["dims", "--builtin", "fibonacci", "--minimal", "4"]) == 0
    out = capsys.readouterr().out
    assert "D(tau) = 2" in out
    assert "objective = 5" in out
    assert "exact: no" in out


def test_dims_from_file_and_dump(tmp_path, capsys):
    dfile = tmp_path / "d.json"
    save_json(str(dfile), {"D": [1, 2], "exact": False})
    rfile = tmp_path / "dims.json"
    assert main(["dims", "--builtin", "fibonacci", "--dim", str(dfile),
                 "-o", str(rfile)]) == 0
    capsys.readouterr()
    obj = load_json(str(rfile))
    assert obj["objective"] == 5 and obj["D"] == [1, 2]


def test_dims_file_is_validated(tmp_path, capsys):
    dfile = tmp_path / "d.json"
    save_json(str(dfile), {"D": [1, 3], "exact": True})
    assert main(["dims", "--builtin", "fibonacci", "--dim", str(dfile)]) == 0
    assert "exact: no" in capsys.readouterr().out
    for bad in ([2, 2], [1, 0], [1], [1, None]):
        save_json(str(dfile), {"D": bad})
        assert main(["dims", "--builtin", "fibonacci", "--dim",
                     str(dfile)]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("obj, field", [
    ({"D": [1, 2.9]}, "D entry"),
    ({"D": [1, True]}, "D entry"),
    ({"D": [1, "2"]}, "D entry"),
    ([1, 2.0], "D entry"),
    ({"exact": False}, '"D"'),
    ({"D": 2}, '"D" must be a list'),
], ids=["float", "bool", "string", "bare-list-float", "no-D", "scalar-D"])
def test_dims_file_rejects_non_integers(tmp_path, capsys, obj, field):
    # int() would truncate 2.9 to 2 and read true as 1
    dfile = tmp_path / "d.json"
    save_json(str(dfile), obj)
    assert main(["dims", "--builtin", "fibonacci", "--dim",
                 str(dfile)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and field in err and "Traceback" not in err


def _set_functor_d(obj):
    obj["functor"]["D"][1] = 2.5


def _set_block_size(obj):
    obj["blocks"][1][1] = 2.5


def _set_seed(obj):
    obj["functor"]["seed"] = True


def _set_fusion_entry(obj):
    obj["category"]["N"][0][3] = 1.0


@pytest.mark.parametrize("edit, field", [
    (_set_functor_d, "functor D"), (_set_block_size, "block size"),
    (_set_seed, "functor seed"), (_set_fusion_entry, "N entry"),
], ids=["functor-D", "block-size", "seed", "fusion-multiplicity"])
def test_dump_rejects_non_integers(tmp_path, capsys, edit, field):
    dfile, dump = tmp_path / "d.json", tmp_path / "h.json"
    save_json(str(dfile), {"D": [1, 2]})
    assert main(["reconstruct", "--builtin", "vec_zn", "--n", "2", "--q", "1",
                 "--dim", str(dfile), "-o", str(dump)]) == 0
    capsys.readouterr()
    obj = load_json(str(dump))
    edit(obj)
    save_json(str(dump), obj)
    assert main(["check-hopf", str(dump)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and field in err and "Traceback" not in err


def _z2_dump(tmp_path, capsys):
    """vec_zn(2, 1) at D = (1, 2), dumped; returns (path, parsed dump)."""
    dfile, dump = tmp_path / "d.json", tmp_path / "h.json"
    save_json(str(dfile), {"D": [1, 2]})
    assert main(["reconstruct", "--builtin", "vec_zn", "--n", "2", "--q", "1",
                 "--dim", str(dfile), "-o", str(dump)]) == 0
    capsys.readouterr()
    return dump, load_json(str(dump))


def _family_list(obj, name):
    return obj["functor"][name] if name in ("c", "c_inv") else obj[name]


@pytest.mark.parametrize("name", ["c", "c_inv", "delta_unit", "phi",
                                  "phi_inv", "R", "R_inv"])
def test_dump_rejects_duplicate_family_key(tmp_path, capsys, name):
    dump, obj = _z2_dump(tmp_path, capsys)
    entries = _family_list(obj, name)
    entries.append(copy.deepcopy(entries[-1]))
    save_json(str(dump), obj)
    assert main(["check-hopf", str(dump)]) == 2
    err = capsys.readouterr().err
    field = "pair" if name in ("c", "c_inv") else "key"
    assert f"error: {name}: duplicate key {entries[-1][field]}" in err
    assert "Traceback" not in err


def test_dump_rejects_tampered_phi_shadowed_by_valid_duplicate(
        tmp_path, capsys):
    # json keeps both list entries, and a dict built from them kept only the
    # valid second one, so the tampered dump passed every check
    dump, obj = _z2_dump(tmp_path, capsys)
    pos, entry = next((i, e) for i, e in enumerate(obj["phi"])
                      if e["key"] == ["1", "1", "1"])
    bad = copy.deepcopy(entry)
    scalar = bad["matrix"][0][0]
    scalar["coeffs"][0] = str(Fraction(scalar["coeffs"][0]) + 1)
    obj["phi"].insert(pos, bad)
    save_json(str(dump), obj)
    assert main(["check-hopf", str(dump)]) == 2
    assert "phi: duplicate key ['1', '1', '1']" in capsys.readouterr().err


@pytest.mark.parametrize("path, shown", [
    (("alpha",), "alpha"), (("beta",), "beta"), (("functor", "d"), "functor/d"),
    (("ribbon_v",), "ribbon_v"),
], ids=["alpha", "beta", "d", "ribbon_v"])
def test_dump_rejects_repeated_object_key(tmp_path, capsys, path, shown):
    dump, obj = _z2_dump(tmp_path, capsys)
    target = obj
    for k in path:
        target = target[k]
    label, M = list(target.items())[-1]
    # json.dump cannot repeat a key: write a marker key, then rename it
    target["repeated-label"] = M
    dump.write_text(json.dumps(obj).replace('"repeated-label"',
                                            json.dumps(label)))
    assert main(["check-hopf", str(dump)]) == 2
    err = capsys.readouterr().err
    assert f"{shown}: duplicate key {label!r}" in err
    assert "Traceback" not in err


def _drop_entry(name, key):
    def edit(obj):
        entries = _family_list(obj, name)
        entries.remove(next(e for e in entries
                            if e.get("key", e.get("pair")) == key))
    return edit


def _narrow(name, key):
    # drop the last column of the matrix at key
    def edit(obj):
        fam = obj.get(name, obj["functor"].get(name))
        if isinstance(fam, dict):
            M = fam[key]
        else:
            M = next(e for e in fam
                     if e.get("key", e.get("pair")) == key)["matrix"]
        for row in M:
            row.pop()
    return edit


def _drop_row(name, key):
    def edit(obj):
        next(e for e in _family_list(obj, name)
             if e["pair"] == key)["matrix"].pop()
    return edit


def _short_key(obj):
    obj["phi"][0]["key"] = ["0", "0"]


def _unknown_label(obj):
    obj["phi"][0]["key"] = ["0", "0", "x"]


def _drop_braiding(obj):
    obj["R"] = obj["R_inv"] = None


@pytest.mark.parametrize("edit, message", [
    (_drop_entry("phi", ["1", "1", "1"]), "phi: missing key ['1', '1', '1']"),
    (_drop_entry("delta_unit", ["0", "1"]),
     "delta_unit: missing key ['0', '1']"),
    (_drop_entry("R_inv", ["1", "0"]), "R_inv: missing key ['1', '0']"),
    (_drop_entry("c", ["1", "1"]), "c: missing key ['1', '1']"),
    (_narrow("phi", ["1", "1", "1"]),
     "phi at ['1', '1', '1']: shape 8x7, expected 8x8"),
    (_narrow("phi_inv", ["0", "1", "1"]),
     "phi_inv at ['0', '1', '1']: shape 4x3, expected 4x4"),
    (_drop_row("c", ["1", "0"]), "c at ['1', '0']: shape 1x2, expected 2x2"),
    (_narrow("c_inv", ["1", "0"]),
     "c_inv at ['1', '0']: shape 2x1, expected 2x2"),
    (_narrow("d", "1"), "d at ['1']: shape 2x1, expected 2x2"),
    (_narrow("alpha", "1"), "alpha at ['1']: shape 2x1, expected 2x2"),
    (_narrow("ribbon_v", "1"), "ribbon_v at ['1']: shape 2x1, expected 2x2"),
    (_short_key, "phi: unexpected key ['0', '0']"),
    (_unknown_label, "phi: unknown label in key ['0', '0', 'x']"),
    (_drop_braiding, "R must be given exactly when the category has a "
                     "braiding"),
], ids=["missing-phi", "missing-delta-unit", "missing-R-inv", "missing-c",
        "narrow-phi", "narrow-phi-inv", "short-c", "narrow-c-inv", "narrow-d",
        "narrow-alpha", "narrow-ribbon", "short-key", "unknown-label",
        "no-braiding"])
def test_dump_rejects_missing_or_misshapen_matrix(tmp_path, capsys, edit,
                                                   message):
    dump, obj = _z2_dump(tmp_path, capsys)
    edit(obj)
    save_json(str(dump), obj)
    assert main(["check-hopf", str(dump)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err


def test_dims_infeasible_bound(capsys):
    assert main(["dims", "--builtin", "fibonacci", "--minimal", "1"]) == 2


def test_reconstruct_check_hopf_round_trip(tmp_path, capsys):
    dump = tmp_path / "h.json"
    assert main(["reconstruct", "--builtin", "fibonacci", "--minimal", "4",
                 "--report", "machine", "-o", str(dump)]) == 0
    first = machine_lines(capsys)
    assert main(["check-hopf", str(dump), "--report", "machine"]) == 0
    second = machine_lines(capsys)
    assert first == second
    assert all(set(r) == MACHINE_KEYS for r in first)
    ids = [r["id"] for r in first]
    assert "blocks-match-dimension" in ids and "phi-pentagon" in ids


def test_check_hopf_rejects_tampered_provenance(tmp_path, capsys):
    dump = tmp_path / "h.json"
    assert main(["reconstruct", "--builtin", "vec_zn", "--n", "2", "--q", "1",
                 "-o", str(dump)]) == 0
    capsys.readouterr()
    obj = load_json(str(dump))
    obj["provenance"]["category_sha256"] = "0" * 64
    save_json(str(dump), obj)
    assert main(["check-hopf", str(dump)]) == 2
    assert "hash" in capsys.readouterr().err


def test_check_hopf_backend_mismatch(tmp_path, capsys):
    exact, approx = tmp_path / "e.json", tmp_path / "a.json"
    argv = ["reconstruct", "--builtin", "vec_zn", "--n", "2", "--q", "1",
            "--minimal", "1"]
    assert main(argv + ["-o", str(exact)]) == 0
    assert main(argv + ["--backend", "approx", "-o", str(approx)]) == 0
    capsys.readouterr()
    assert main(["check-hopf", str(approx)]) == 2
    assert "backend mismatch" in capsys.readouterr().err
    assert main(["check-hopf", str(exact), "--backend", "approx"]) == 2
    assert "backend mismatch" in capsys.readouterr().err


def test_twist_command_and_dump(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["twist", "--builtin", "fibonacci", "--minimal", "4",
                 "--seeds", "canonical,7", "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "twist canonical -> 7" in text
    obj = load_json(str(out))
    assert set(obj) == {"T", "T_inv", "report"}
    pairs = {tuple(e["pair"]) for e in obj["T"]}
    assert ("tau", "tau") in pairs


def test_twist_seed_parse_error(capsys):
    assert main(["twist", "--builtin", "svec", "--seeds", "canonical"]) == 2


def test_approx_backend_flow(tmp_path, capsys):
    assert main(["verify", "--builtin", "ising", "--backend", "approx"]) == 0
    dump = tmp_path / "ha.json"
    assert main(["reconstruct", "--builtin", "vec_zn", "--n", "3", "--q", "1",
                 "--backend", "approx", "-o", str(dump)]) == 0
    capsys.readouterr()
    assert main(["check-hopf", str(dump), "--backend", "approx",
                 "--report", "machine"]) == 0
    rows = machine_lines(capsys)
    assert rows and all(r["status"] == "pass" for r in rows)
    assert any(r["worst_deviation"] > 0 for r in rows)


def test_verify_report_dump(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["verify", "--builtin", "svec", "-o", str(out)]) == 0
    capsys.readouterr()
    obj = load_json(str(out))
    assert isinstance(obj, list) and all(set(r) == MACHINE_KEYS for r in obj)
