"""The campaign config table ``harness._SCHEMA``, walked key by key: a value
of the wrong kind, an extra key and a block that is not a JSON object each
give a config error that names them, so a key is tested once its row is in
the table."""

from __future__ import annotations

import copy
import json

import pytest

from slqns.harness import _SCHEMA, EXIT_CONFIG, EXIT_OK, build_campaign, main

from test_cli import TABULATED_MODEL
from test_harness import CLOSED_FORM_P4, TRAJECTORY, write_config

# a block for each label value that picks keys: a backend type, a model kind
EXAMPLES = {
    "closed_form": CLOSED_FORM_P4["backend"],
    "trajectory": TRAJECTORY["backend"],
    "Lorentzian": CLOSED_FORM_P4["spectra"]["dephasing"]["model"],
    "White": CLOSED_FORM_P4["spectra"]["transverse"]["model"],
    "Tabulated": TABULATED_MODEL,
}

KINDS = {int: "an integer", float: "a number", bool: "true or false"}


def blocks(schema, path=(), labels=()):
    """(path, keys, labels) of every block of ``schema``, the whole config
    first, once for each value of a label that picks some of its keys;
    ``labels`` holds the (path, value) of the labels that the block needs."""
    label = next(((key, kind[0]) for key, (kind, _) in schema.items() if isinstance(kind, tuple)), None)
    for value, extra in label[1].items() if label else [(None, {})]:
        keys = {**schema, **extra}
        here = labels + ((path + (label[0],), value),) if label else labels
        yield path, keys, here
        for key, (kind, _) in keys.items():
            if isinstance(kind, dict):
                yield from blocks(kind, path + (key,), here)


def dotted(path):
    """A block's name in the config's messages."""
    return ".".join(path) or "config"


# every block, with each label value that picks some of its keys, or those of a block that it holds:
# a name such as "backend[trajectory]" -> (path, keys, labels)
BLOCKS = {dotted(path) + "".join(f"[{value}]" for _, value in labels): (path, keys, labels)
          for path, keys, labels in blocks(_SCHEMA)}

# every int, float, bool or list key: dotted path -> (path, kind, labels)
TYPED = {
    ".".join(path + (key,)): (path + (key,), kind, labels)
    for path, keys, labels in BLOCKS.values()
    for key, (kind, _) in keys.items()
    if isinstance(kind, list) or kind in (int, float, bool)
}


def config_with(labels):
    """CLOSED_FORM_P4 with the example block of each label in ``labels``."""
    config = copy.deepcopy(CLOSED_FORM_P4)
    for path, value in labels:
        at(config, path[:-2])[path[-2]] = copy.deepcopy(EXAMPLES[value])
    return config


def at(config, path):
    for key in path:
        config = config[key]
    return config


def refusal(tmp_path, capsys, config) -> str:
    """The stderr of ``slqns validate`` and of ``slqns run`` on ``config``,
    which must be the same, after checking that both exit 2 and that run
    writes nothing."""
    errors = []
    for command in (["validate"], ["run", "--out-dir", str(tmp_path / "out")]):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([command[0], str(path), *command[1:]]) == EXIT_CONFIG
        errors.append(capsys.readouterr().err)
    assert not (tmp_path / "out").exists()
    assert errors[0] == errors[1]
    return errors[0]


def test_every_example_config_validates(tmp_path):
    for path, _, labels in BLOCKS.values():
        config = config_with(labels)
        if "trajectory" in dict(labels).values():
            config["plan"] = TRAJECTORY["plan"]
        assert main(["validate", write_config(tmp_path, config)]) == EXIT_OK, ".".join(path)


@pytest.mark.parametrize("key", TYPED)
def test_a_value_of_the_wrong_kind_names_its_key(tmp_path, capsys, key):
    path, kind, labels = TYPED[key]
    config = config_with(labels)
    at(config, path[:-1])[path[-1]] = "x"
    expected = "a list" if isinstance(kind, list) else KINDS[kind]
    assert refusal(tmp_path, capsys, config) == f"config error: {key} must be {expected}, got 'x'\n"
    if isinstance(kind, list):
        at(config, path[:-1])[path[-1]] = ["x"]
        assert refusal(tmp_path, capsys, config) == f"config error: {key} must be {KINDS[kind[0]]}, got 'x'\n"


@pytest.mark.parametrize("block", BLOCKS)
def test_an_extra_key_in_any_block_is_refused(tmp_path, capsys, block):
    path, keys, labels = BLOCKS[block]
    config = config_with(labels)
    at(config, path)["extra"] = 1
    assert refusal(tmp_path, capsys, config) == (
        f"config error: unknown key 'extra' in {dotted(path)}; expected one of {', '.join(keys)}\n")


# every label: dotted path -> (block path, key, labels, the table's message for a value it does not list)
LABELS = {
    ".".join(path + (key,)): (path, key, labels, kind[1])
    for path, keys, labels in BLOCKS.values()
    for key, (kind, _) in keys.items()
    if isinstance(kind, tuple)
}


@pytest.mark.parametrize("key", LABELS)
def test_a_label_refuses_a_value_that_it_does_not_list(tmp_path, capsys, key):
    path, label, labels, message = LABELS[key]
    config = config_with(labels)
    at(config, path)[label] = "bogus"
    assert refusal(tmp_path, capsys, config) == f"config error: {message.format('bogus', dotted(path))}\n"


@pytest.mark.parametrize("path, key, message", [
    (("plan",), "shot",
     "unknown key 'shot' in plan; expected one of omegas_MHz, times_us, aligned_n, shots, long_time_threshold, "
     "allow_low_frequency"),
    (("spectra", "dephasing"), "quantum_lag",
     "unknown key 'quantum_lag' in spectra.dephasing; expected one of model, scale, quantum_lag_us"),
    (("backend",), "n_realizations", "unknown key 'n_realizations' in backend; expected one of type, analytic"),
], ids=["plan-shot", "quantum-lag", "closed-form-realizations"])
def test_a_misspelt_key_is_refused_instead_of_read_as_its_default(tmp_path, capsys, path, key, message):
    config = copy.deepcopy(CLOSED_FORM_P4)
    at(config, path)[key] = 2
    assert refusal(tmp_path, capsys, config) == f"config error: {message}\n"


@pytest.mark.parametrize("block", sorted({dotted(path) for path, _, _ in BLOCKS.values()}))
def test_a_block_that_is_not_a_json_object_is_refused(tmp_path, capsys, block):
    path, _, labels = next(entry for entry in BLOCKS.values() if dotted(entry[0]) == block)
    config = config_with(labels)
    if path:
        at(config, path[:-1])[path[-1]] = 5
    else:
        config = 5
    assert refusal(tmp_path, capsys, config) == f"config error: {block} must be a JSON object, got 5\n"


def test_a_null_transverse_block_is_no_transverse_block():
    config = copy.deepcopy(CLOSED_FORM_P4)
    config["spectra"]["transverse"] = None
    spectra = build_campaign(config).backend.spectra
    del config["spectra"]["transverse"]
    assert spectra.value(1, -1, 3.0) == build_campaign(config).backend.spectra.value(1, -1, 3.0) == 0.0
