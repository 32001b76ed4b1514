import rankconsensus


def test_every_exported_name_resolves():
    missing = [name for name in rankconsensus.__all__ if not hasattr(rankconsensus, name)]
    assert missing == []
    assert len(set(rankconsensus.__all__)) == len(rankconsensus.__all__)
