"""Config validation, leaf counting, path enumeration, and serialization."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from treegen.errors import ConfigError
from treegen.tree import (GenMeta, LayerSpec, Mode, Role, Tree, TreeConfig, TreeNode, TreeShape,
                          child_id, classify_shape, config_from_dict, config_hash,
                          config_to_dict, expected_leaf_count, load_config,
                          node_from_record, node_to_record, structural_key,
                          validate_config)

from conftest import BAD_CONFIG_VALUES, bad_config_dict, build_full_tree, pt_config, sft_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# --- validate_config ---------------------------------------------------------

def test_odd_depth_sft_is_an_error():
    config = sft_config([2, 2, 2])
    report = validate_config(config)
    assert any("odd depth in SFT mode" in e for e in report["errors"])


def test_table_style_config_is_clean():
    # branching 32/16/8/8 with increasing answer budgets: no errors, no warnings
    config = sft_config([32, 16, 8, 8], q_tokens=64, a_tokens=256, a_step=256)
    report = validate_config(config)
    assert report["errors"] == []
    assert report["warnings"] == []
    assert report["shape"] == TreeShape.BALANCE.value


def test_decreasing_answer_budgets_warn():
    layers = (
        LayerSpec(2, 16, Role.QUESTION, 1.0),
        LayerSpec(2, 512, Role.ANSWER, 0.7),
        LayerSpec(2, 16, Role.QUESTION, 1.0),
        LayerSpec(2, 256, Role.ANSWER, 0.7),
    )
    config = TreeConfig(mode=Mode.SFT, system_prompt="s", layers=layers)
    report = validate_config(config)
    assert report["errors"] == []
    assert any("answer budgets not increasing with depth" in w for w in report["warnings"])


def test_varying_question_budgets_warn():
    layers = (
        LayerSpec(2, 16, Role.QUESTION, 1.0),
        LayerSpec(2, 128, Role.ANSWER, 0.7),
        LayerSpec(2, 32, Role.QUESTION, 1.0),
        LayerSpec(2, 256, Role.ANSWER, 0.7),
    )
    report = validate_config(TreeConfig(mode=Mode.SFT, system_prompt="s", layers=layers))
    assert report["errors"] == []
    assert any("question budgets vary" in w for w in report["warnings"])


def test_role_parity_mismatch_is_an_error():
    layers = (LayerSpec(2, 8, Role.ANSWER, 0.7), LayerSpec(2, 8, Role.QUESTION, 1.0))
    report = validate_config(TreeConfig(mode=Mode.SFT, system_prompt="s", layers=layers))
    assert len(report["errors"]) == 2
    # a continuation layer only exists in PT mode
    layers = (LayerSpec(2, 8, Role.QUESTION, 1.0), LayerSpec(2, 8, Role.CONTINUATION, 1.0))
    report = validate_config(TreeConfig(mode=Mode.SFT, system_prompt="s", layers=layers))
    assert report["errors"] == ["layer 2 role is 'continuation', expected 'answer' for sft mode"]


def test_pt_layers_are_continuations():
    config = pt_config([3, 2])
    assert validate_config(config)["errors"] == []
    bad = TreeConfig(mode=Mode.PT, system_prompt="s",
                     layers=(LayerSpec(2, 8, Role.QUESTION, 1.0),))
    assert validate_config(bad)["errors"]


def test_parameter_range_errors():
    import dataclasses
    config = sft_config([2, 2])
    for bad in (
        dataclasses.replace(config, oversample_factor=0.5),
        dataclasses.replace(config, mmr_lambda=1.5),
        dataclasses.replace(config, dedup_threshold=0.0),
        dataclasses.replace(config, dedup_threshold=1.5),
    ):
        assert validate_config(bad)["errors"]


def test_validation_never_raises_on_weird_layers():
    layers = (LayerSpec(0, 0, Role.QUESTION, -1.0), LayerSpec(1, 1, Role.ANSWER, 0.7))
    report = validate_config(TreeConfig(mode=Mode.SFT, system_prompt="s", layers=layers))
    assert len(report["errors"]) >= 3


# --- classification ------------------------------------------------------------

@pytest.mark.parametrize("branching,shape", [
    ([100000, 1, 1, 1], TreeShape.WIDE),
    ([2, 1, 1, 1], TreeShape.WIDE),
    ([32, 16, 8, 8], TreeShape.BALANCE),
    ([1, 2, 1, 1], TreeShape.BALANCE),
    ([1, 1, 1, 1], TreeShape.CHAIN),
])
def test_shape_classification(branching, shape):
    assert classify_shape(branching) is shape


# --- expected_leaf_count ---------------------------------------------------------

def test_expected_leaf_count_products():
    assert expected_leaf_count(sft_config([4, 2, 2, 2])) == 32
    assert expected_leaf_count(sft_config([32, 16, 8, 8])) == 32768
    assert expected_leaf_count(sft_config([100000, 1, 1, 1])) == 100000


def test_expected_leaf_count_rejects_invalid():
    with pytest.raises(ConfigError):
        expected_leaf_count(sft_config([2, 2, 2]))  # odd depth


# --- tree container and leaf paths ----------------------------------------------

def test_leaf_paths_complete_2x2():
    tree = build_full_tree(sft_config([2, 2]))
    paths = tree.leaf_paths()
    assert len(paths) == 4
    for path in paths:
        assert [n.role for n in path] == [Role.QUESTION, Role.ANSWER]


def test_leaf_paths_match_expected_leaf_count():
    config = sft_config([4, 2, 2, 2])
    tree = build_full_tree(config)
    paths = tree.leaf_paths()
    assert len(paths) == expected_leaf_count(config) == 32
    assert all(len(p) == 4 for p in paths)


def test_leaf_paths_deterministic_order():
    tree = build_full_tree(sft_config([2, 2]))
    ids = [[n.id for n in path] for path in tree.leaf_paths()]
    assert ids == [["0", "0.0"], ["0", "0.1"], ["1", "1.0"], ["1", "1.1"]]


def test_leaf_paths_with_shortfall():
    config = sft_config([2, 2])
    tree = Tree(config)
    q = [TreeNode(id=str(i), parent_id="root", layer=1, role=Role.QUESTION,
                  text=f"q{i}", token_count=1) for i in range(2)]
    tree.add_children("root", q)
    full = [TreeNode(id=child_id("0", r), parent_id="0", layer=2, role=Role.ANSWER,
                     text=f"a{r}", token_count=1) for r in range(2)]
    tree.add_children("0", full)
    short = [TreeNode(id=child_id("1", 0), parent_id="1", layer=2, role=Role.ANSWER,
                      text="a", token_count=1)]
    tree.add_children("1", short)
    assert not tree.unexpanded()
    assert len(tree.leaf_paths()) == 3
    assert tree.shortfalls == {"1": 1}  # derived from the child count
    assert sum(tree.shortfalls.values()) == 1
    # recomputation identity: leaves equal the child counts of depth-(d-1) nodes
    penultimate = tree.layer_ids(tree.depth - 1)
    assert len(tree.leaf_paths()) == sum(len(tree.nodes[n].children) for n in penultimate)


def test_incomplete_tree_raises_unless_permissive():
    config = sft_config([2, 2, 2, 2])
    tree = Tree(config)
    q = [TreeNode(id=str(i), parent_id="root", layer=1, role=Role.QUESTION,
                  text=f"q{i}", token_count=1) for i in range(2)]
    tree.add_children("root", q)
    for pid in ("0", "1"):
        a = [TreeNode(id=child_id(pid, r), parent_id=pid, layer=2, role=Role.ANSWER,
                      text="a", token_count=1) for r in range(2)]
        tree.add_children(pid, a)
    with pytest.raises(ConfigError, match="expansion is not finished"):
        tree.leaf_paths()
    paths = tree.leaf_paths(permissive=True)
    assert len(paths) == 4 and all(len(p) == 2 for p in paths)


def test_permissive_rounds_down_to_even_layer_in_sft():
    config = sft_config([2, 2, 2, 2])
    tree = Tree(config)
    q = [TreeNode(id=str(i), parent_id="root", layer=1, role=Role.QUESTION,
                  text="q", token_count=1) for i in range(2)]
    tree.add_children("root", q)
    # only layer 1 complete -> rounds down to 0 -> no paths
    assert tree.leaf_paths(permissive=True) == []


def test_walk_orders_like_sorted_ids():
    # branching 12 puts "0.10" after "0.2", where a string sort would not
    config = sft_config([12, 3, 2, 2])
    tree = Tree(config)
    tree.add_children("root", [TreeNode(id=str(i), parent_id="root", layer=1,
                                        role=Role.QUESTION, text="q", token_count=1)
                               for i in range(12)])
    for pid in ("0", "2", "10"):
        tree.add_children(pid, [TreeNode(id=child_id(pid, r), parent_id=pid, layer=2,
                                         role=Role.ANSWER, text="a", token_count=1)
                                for r in range(3 if pid != "2" else 1)])
    tree.add_children("0.1", [TreeNode(id="0.1.0", parent_id="0.1", layer=3,
                                       role=Role.QUESTION, text="q", token_count=1)])
    for layer in range(4):
        ids = [nid for nid, node in tree.nodes.items() if node.layer == layer]
        assert tree.layer_ids(layer) == sorted(ids, key=structural_key)
    pending = [nid for nid in tree.nodes
               if tree.nodes[nid].layer < tree.depth and not tree.is_expanded(nid)]
    assert [n.id for n in tree.unexpanded()] == sorted(pending, key=structural_key)
    assert tree.unexpanded()[:3] == [tree.nodes[nid] for nid in ("0.0", "0.1.0", "0.2")]
    assert tree.unexpanded()
    # layer 1 holds unexpanded nodes; SFT rounds 1 down to 0
    assert tree.export_depth(permissive=True) == 0


# --- structural ids ---------------------------------------------------------------

def test_structural_key_ordering():
    ids = ["0.10", "0.2", "0.2.1", "1", "0"]
    assert sorted(ids, key=structural_key) == ["0", "0.2", "0.2.1", "0.10", "1"]


# --- config JSON and hashing -------------------------------------------------------

def test_config_json_round_trip():
    config = sft_config([3, 2], template_id="llama2-chat")
    clone = config_from_dict(config_to_dict(config))
    assert clone == config
    assert config_hash(clone) == config_hash(config)


def test_unknown_config_key_is_hard_error():
    raw = config_to_dict(sft_config([2, 2]))
    raw["extra_key"] = 1
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict(raw)


def test_unknown_layer_key_is_hard_error():
    raw = config_to_dict(sft_config([2, 2]))
    raw["layers"][0]["oops"] = True
    with pytest.raises(ConfigError, match="unknown keys in layer 1"):
        config_from_dict(raw)


@pytest.mark.parametrize("case", list(BAD_CONFIG_VALUES))
def test_bad_config_value_is_config_error(case):
    raw, names = bad_config_dict(case)
    raw = json.loads(json.dumps(raw))  # as load_config would see it
    with pytest.raises(ConfigError, match=re.escape(names)):
        config_from_dict(raw)


def test_layer_roles_inferred_from_parity():
    raw = {
        "mode": "sft",
        "system_prompt": "s",
        "layers": [{"branching": 2, "max_tokens": 8}, {"branching": 2, "max_tokens": 16}],
    }
    config = config_from_dict(raw)
    assert [l.role for l in config.layers] == [Role.QUESTION, Role.ANSWER]
    assert config.layers[0].temperature == 1.0
    assert config.layers[1].temperature == 0.7


def test_config_hash_changes_with_seed():
    a = sft_config([2, 2], seed=1)
    b = sft_config([2, 2], seed=2)
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 16


# config_hash of each shipped config, pinned: config.json records it and a
# resume compares it
SHIPPED_CONFIG_HASHES = {
    "balance_32x16x8x8": "f60548cef2d0600b",
    "balance_32x8x8x8": "3ea49bfc635907bc",
    "balance_8x4x2x2": "250a6a801c9c2471",
    "pt_world_knowledge": "3103f646be25e229",
    "wide_64x1x1x1": "337382a122d3199e",
}


def test_shipped_config_hashes_are_pinned():
    hashes = {path.stem: config_hash(load_config(path))
              for path in sorted(CONFIGS.glob("*.json"))}
    assert hashes == SHIPPED_CONFIG_HASHES


# --- node record round trip ----------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: TreeNode(id="0", parent_id="root", layer=1, role=Role.QUESTION, text="q",
                     token_count=1, gen_meta=GenMeta("mock", "stop", 0)),
    lambda: GenMeta("mock", "stop", 0),
], ids=["TreeNode", "GenMeta"])
def test_nodes_are_immutable_and_carry_no_instance_dict(make):
    value = make()
    for name in (f.name for f in dataclasses.fields(value)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))
    # nor can a name that is no field be added (Python 3.11 raises TypeError
    # there for a slotted frozen dataclass, later versions AttributeError)
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 1
    assert not hasattr(value, "__dict__")


def test_node_from_record_takes_roles_and_gen_meta_by_value():
    record = {"id": "0", "parent_id": "root", "layer": 1, "role": "question", "text": "q",
              "token_count": 1,
              "gen_meta": {"backend_id": "mock", "finish_reason": "stop", "sample_index": 2}}
    node = node_from_record(record)
    assert node.role is Role.QUESTION and node.children == []
    assert node.gen_meta == GenMeta("mock", "stop", 2) and node.embedding is None
    assert node_from_record(dict(record)).children is not node.children
    for role, error in ((["question"], "['question'] is not a valid Role"),
                        ("Question", "'Question' is not a valid Role")):
        with pytest.raises(ValueError, match=re.escape(error)):
            node_from_record({**record, "role": role})


def test_node_record_round_trip():
    node = TreeNode(id="0.1", parent_id="0", layer=2, role=Role.ANSWER,
                    text="hello world", token_count=2,
                    gen_meta=GenMeta("mock", "stop", 3))
    record = json.loads(json.dumps(node_to_record(node)))
    clone = node_from_record(record)
    assert clone.id == node.id and clone.text == node.text
    assert clone.gen_meta == node.gen_meta
