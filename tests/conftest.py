"""Suite-wide collection hooks."""


def pytest_collection_modifyitems(items):
    # the pinned artifact digests must hold at any BLAS thread count
    for item in items:
        if item.path.name == "test_artifact_digests.py":
            item.add_marker("blas_threads")
