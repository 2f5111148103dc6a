import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "clannish.cli"]


def run_cli(*args, check=True):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300
    )
    if check:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def test_validate_bundled():
    out = json.loads(run_cli("validate", "example:GP2").stdout)
    assert out["valid"] and out["algebra_dimension"] == 5


def test_validate_violation(tmp_path):
    bad = {
        "field": {"p": 2, "n": 1},
        "vertices": ["1", "2"],
        "arrows": [
            {"name": "a", "from": "1", "to": "2", "sigma": 0},
            {"name": "b", "from": "1", "to": "2", "sigma": 0},
            {"name": "c", "from": "1", "to": "2", "sigma": 0},
        ],
        "special": [],
        "zero_relations": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    proc = run_cli("validate", str(path), check=False)
    assert proc.returncode == 1
    err = json.loads(proc.stdout)
    assert err["error"]["type"] == "ClannishViolation"


def test_quadratic_case2():
    out = json.loads(
        run_cli(
            "quadratic", "--p", "2", "--n", "2", "--sigma", "1", "--beta", "0", "--gamma", "1"
        ).stdout
    )
    assert out["case"] == 2 and out["case_name"] == "matrix_ring"
    assert out["is_normal"] and out["is_semisimple"]


def test_strings_bands_basis():
    strings = json.loads(run_cli("strings", "example:E1", "--max-len", "3").stdout)
    assert [s["compact"] for s in strings["strings"]] == ["s*", "s*.a.s*"]
    bands = json.loads(run_cli("bands", "example:E1", "--max-period", "4").stdout)
    assert len(bands["bands"]) == 2
    basis = json.loads(run_cli("basis", "example:E1", "--max-len", "3").stdout)
    assert basis["count"] == 7


def test_build_fdim_decompose_roundtrip(tmp_path):
    module = tmp_path / "m.json"
    out = json.loads(
        run_cli(
            "build", "example:E1", "--word", "s*.a.s*", "-o", str(module)
        ).stdout
    )
    assert out["dim"] == 4
    fd = json.loads(run_cli("fdim", str(module), "--word", "s*.a.s*").stdout)
    assert fd["f_dim"] == 1 and fd["Jw"] == 4
    dec = json.loads(run_cli("decompose", str(module)).stdout)
    assert dec["complete"] and dec["checksum"] == 4
    # bit-for-bit determinism across runs
    again = run_cli("decompose", str(module)).stdout
    assert again == run_cli("decompose", str(module)).stdout
    check = json.loads(run_cli("oracle-check", str(module)).stdout)
    assert check["agree"] and check["complete"]


def test_decompose_five_dimensional_sample(tmp_path):
    import clannish.serialize as serialize
    from clannish.examples import module_catalog, one_loop_pair
    from clannish.homalg import direct_sum

    E1 = one_loop_pair()
    cat = {repr(d.word): rep for d, _, rep in module_catalog(E1, 3, 2)}
    sample = direct_sum(cat["s*"], cat["s*as*"])
    path = tmp_path / "five.json"
    path.write_text(json.dumps(serialize.representation_to_json(sample)))
    out = json.loads(run_cli("decompose", str(path)).stdout)
    assert out["complete"] and out["checksum"] == 5 and out["dim"] == 5
    assert {s["word"]: s["f_dim"] for s in out["summands"]} == {"s*": 1, "s*.a.s*": 1}


def test_band_build_with_param(tmp_path):
    param = tmp_path / "p.json"
    param.write_text(json.dumps({"lambda": [[[1, 0]]]}))
    module = tmp_path / "band.json"
    out = json.loads(
        run_cli(
            "build", "example:E1", "--word", "(s*.a)", "--param", str(param), "-o", str(module)
        ).stdout
    )
    assert out["dim"] == 2
    dec = json.loads(run_cli("decompose", str(module)).stdout)
    assert dec["complete"] and dec["checksum"] == 2


def test_validate_arrowless_presentation(tmp_path):
    pres = {"field": {"p": 2, "n": 1}, "vertices": ["1", "2"], "arrows": []}
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(pres))
    out = json.loads(run_cli("validate", str(path)).stdout)
    assert out["algebra_dimension"] == 2 and out["finite_dimensional"]


def _e1_module():
    """The E1 string module s*.a.s* as JSON, presentation embedded."""
    import clannish.serialize as serialize
    from clannish.examples import module_catalog, one_loop_pair

    cat = {repr(d.word): rep for d, _, rep in module_catalog(one_loop_pair(), 3, 2)}
    return serialize.representation_to_json(cat["s*as*"])


def _a_squared_nonzero(module):
    n = module["dims"]["1"]
    module["arrows"]["a"]["matrix"] = [
        [[1, 0] if i == j else [0, 0] for j in range(n)] for i in range(n)
    ]


BAD_INPUTS = {
    "unknown example": (["validate", "example:NOPE"], None, "InvalidInput"),
    "missing file": (["validate", "{missing}"], None, "InvalidInput"),
    "malformed JSON": (["decompose", "{module}"], "{bad", "InvalidInput"),
    "unknown letter": (["build", "example:E1", "--word", "zz"], None, "InvalidInput"),
    "relation a.a broken": (["decompose", "{module}"], _a_squared_nonzero, "InvalidInput"),
    "sigma differs": (
        ["decompose", "{module}"],
        lambda m: m["arrows"]["a"].update(sigma=0),
        "PresentationMismatch",
    ),
    "field differs": (
        ["decompose", "{module}"],
        lambda m: m.update(field={"p": 3, "n": 1}),
        "FieldMismatch",
    ),
    "unknown arrow": (
        ["oracle-check", "{module}"],
        lambda m: m["arrows"].update(zz=m["arrows"]["a"]),
        "InvalidInput",
    ),
    "dims missing": (["decompose", "{module}"], lambda m: m.pop("dims"), "InvalidInput 'dims'"),
    "arrows a list": (
        ["decompose", "{module}"],
        lambda m: m.update(arrows=list(m["arrows"].values())),
        "InvalidInput 'arrows'",
    ),
    "matrix missing": (
        ["decompose", "{module}"],
        lambda m: m["arrows"]["a"].pop("matrix"),
        "InvalidInput 'matrix'",
    ),
    "presentation vertices missing": (
        ["decompose", "{module}"],
        lambda m: m["presentation"].pop("vertices"),
        "InvalidInput 'vertices'",
    ),
    "bad quadratic element": (
        ["quadratic", "--p", "2", "--n", "1", "--beta", "x", "--gamma", "1"],
        None,
        "InvalidInput",
    ),
}


@pytest.mark.parametrize("argv, content, error", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_gives_typed_error(tmp_path, argv, content, error):
    module = tmp_path / "m.json"
    if isinstance(content, str):
        module.write_text(content)
    elif content is not None:
        data = _e1_module()
        content(data)
        module.write_text(json.dumps(data))
    argv = [a.format(module=module, missing=tmp_path / "missing.json") for a in argv]
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 1, proc.stderr
    kind, _, named = error.partition(" ")  # a bad key must be named in the detail
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == kind and named in err["detail"]

