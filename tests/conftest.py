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
        partials = ds.map_batches(GlobalPartial([], [rule], 0), batch_format="pyarrow")
        for b in partials.iter_batches(batch_format="pyarrow", batch_size=None):
            fold_partials([], states, [rule], b)
        return states[0]

    return fold
