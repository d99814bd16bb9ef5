"""Every CLI output byte, pinned: the corpus of ``golden.py`` run against
``golden_digests.txt``."""

import pytest

import golden


def test_outputs_match_the_golden_digests(tmp_path, monkeypatch):
    for key, value in golden.ENVIRONMENT.items():
        monkeypatch.setenv(key, value)
    monkeypatch.delenv("MATCHKIT_BUDGET", raising=False)
    expected = golden.read_digests()
    names = []
    for name, argvs in golden.cases(tmp_path):
        names.append(name)
        want = expected.get(name, [])
        for k, argv in enumerate(argvs):
            if k >= len(want) or golden.digest(argv, tmp_path) != want[k]:
                pytest.fail(
                    f"first differing output: input {name}, command "
                    f"{golden.show(argv, tmp_path)}; it now reads\n"
                    + golden.run(argv, tmp_path)
                )
        assert len(argvs) == len(want), f"input {name}: more golden digests than commands"
    assert names == list(expected)
