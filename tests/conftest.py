import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def drift_state(ray_session):
    """``fold(ds, rule)``: one drift rule's merged partials over a Dataset,
    folded on the driver from per-block partials as a validation run folds
    its tasks' partials."""
    from fs_schema_validator_ray.pipelines.stats import GlobalPartial, fold_partials

    def fold(ds, rule):
        states = [{}]
        for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
            partial = GlobalPartial([], [rule], 0)
            partial.add(b)
            fold_partials([], states, [rule], partial.blobs())
        return states[0]

    return fold


class HalfWrite:
    """A text file whose ``write`` writes half its text, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, text):
        self.f.write(text[: len(text) // 2])
        raise OSError("disk full")


@pytest.fixture
def fail_sink_writes(monkeypatch):
    """``fail()``: from then on, every file ``sinks`` opens fails halfway
    through its first write with ``OSError("disk full")``."""
    from fs_schema_validator_ray import sinks

    def fail():
        monkeypatch.setattr(sinks, "open", lambda path, mode="r": HalfWrite(open(path, mode)),
                            raising=False)

    return fail
