"""Direct tests for small public APIs exercised only indirectly
elsewhere: message sizing, op tags, the grid/averaging drivers."""


from repro.dht import next_op_tag
from repro.net import HEADER_BYTES, ID_BYTES, ADDR_BYTES, Message, NodeAddress, entry_bytes


def test_entry_bytes_is_id_plus_address():
    assert entry_bytes() == ID_BYTES + ADDR_BYTES


def test_message_floors_size_at_header():
    msg = Message(NodeAddress(0), NodeAddress(1), "x", size=3)
    assert msg.size == HEADER_BYTES
    big = Message(NodeAddress(0), NodeAddress(1), "x", size=5000)
    assert big.size == 5000


def test_message_ids_unique():
    a = Message(NodeAddress(0), NodeAddress(1), "x", size=100)
    b = Message(NodeAddress(0), NodeAddress(1), "x", size=100)
    assert a.msg_id != b.msg_id


def test_next_op_tag_monotone_unique():
    tags = [next_op_tag() for _ in range(100)]
    assert len(set(tags)) == 100
    assert tags == sorted(tags)


def test_run_fig5_grid_shape():
    from repro.experiments import Fig5Config, run_fig5_parallel

    cfg = Fig5Config(num_nodes=30, duration_s=120.0, warmup_s=20.0,
                     mean_lifetimes_s=(3600.0,))
    rows = run_fig5_parallel(cfg, systems=("chord-recursive", "verme"), workers=1)
    assert len(rows) == 2
    assert {r.system for r in rows} == {"chord-recursive", "verme"}


def test_run_fig5_averages_multiple_runs():
    from dataclasses import replace

    from repro.experiments import Fig5Config, run_fig5_parallel

    cfg = Fig5Config(num_nodes=30, duration_s=120.0, warmup_s=20.0,
                     mean_lifetimes_s=(3600.0,), runs=2)
    rows = run_fig5_parallel(cfg, systems=("chord-recursive",), workers=1)
    single = run_fig5_parallel(
        replace(cfg, runs=1), systems=("chord-recursive",), workers=1
    )
    assert rows[0].lookups > single[0].lookups  # pooled across runs


def test_run_fig6_and_fig7_row_views():
    from repro.experiments import DhtExperimentConfig, run_dht_parallel
    from repro.experiments.dht_ops import rows_for_figure

    cfg = DhtExperimentConfig(num_nodes=60, num_sections=8, num_puts=4, num_gets=4)
    flat = rows_for_figure(run_dht_parallel(cfg, systems=("dhash",), workers=1))
    assert len(flat) == 2
    assert {r.operation for r in flat} == {"get", "put"}
    assert all(r.mean_bytes > 0 for r in flat)
