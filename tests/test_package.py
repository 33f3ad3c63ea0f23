import qext


def test_all_names_resolve_once():
    namespace: dict = {}
    exec("from qext import *", namespace)
    for name in qext.__all__:
        assert getattr(qext, name) is namespace[name]
    assert len(set(qext.__all__)) == len(qext.__all__)
