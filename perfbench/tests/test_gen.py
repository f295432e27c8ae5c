import json
import random

from gen import Shape, entity_label, generate, gold_tails, perturb, relation_labels

TINY = Shape(entities=60, relations=12, max_out_degree=4, questions=9, two_topic_every=3)


def _read(paths):
    return {name: path.read_bytes() for name, path in paths.items()}


def test_same_seed_gives_identical_files(tmp_path):
    first = _read(generate(TINY, 7, tmp_path / "a"))
    second = _read(generate(TINY, 7, tmp_path / "b"))
    assert first == second


def test_other_seed_gives_other_files(tmp_path):
    assert _read(generate(TINY, 7, tmp_path / "a")) != _read(generate(TINY, 8, tmp_path / "b"))


def test_questions_cycle_hops_and_add_second_topics(tmp_path):
    paths = generate(TINY, 3, tmp_path)
    questions = [json.loads(line) for line in paths["dataset"].read_text().splitlines()]
    table = json.loads(paths["oracle"].read_text())
    assert [len(table[q["question"]]["path"]) for q in questions] == [1, 2, 3] * 3
    assert [len(q["topics"]) for q in questions] == [1, 1, 2] * 3


def test_gold_answers_are_the_tails_of_simple_paths():
    # 0 -a-> 1 -b-> 2, 0 -a-> 3 -b-> 0 (revisits the topic), 3 -b-> 4
    out = [[(0, 1), (0, 3)], [(1, 2)], [], [(1, 0), (1, 4)], []]
    assert gold_tails(out, 0, [0, 1]) == {2, 4}
    assert gold_tails(out, 0, [0]) == {1, 3}


def test_labels_and_perturbations():
    assert [entity_label(i) for i in (0, 35, 36)] == ["m.00", "m.0z", "m.010"]
    labels = relation_labels(random.Random(1), 400)
    assert len(set(labels)) == 400 and all(label.count(".") == 2 for label in labels)
    label = "people.person.children"
    assert perturb(label, "spaced") == "people person children"
    assert perturb(label, "underscored") == "people_person_children"
    assert perturb(label, "typo") == "people.person.childrens"
    assert perturb(label, "truncated") == "person.children"
