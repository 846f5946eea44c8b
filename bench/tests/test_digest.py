from run import digest, normalize

RUN_OUTPUT = """\
== fig14: Communication vs computation ==
matrix  comm/comp
-----------------
arabic       1.23
[paper] NetSparse cuts communication
[note]  tiny scale
[2.3s]

[engine] jobs=15 memo-hits=0 cache-hits=0 executed=15 batched=0 hit-rate=0%
[trace-cache] entries=5/8 hits=10 misses=5 evictions=0
"""


def test_normalize_drops_only_stats_and_timing_lines():
    kept = normalize(RUN_OUTPUT).splitlines()
    assert "[2.3s]" not in kept
    assert not any(line.startswith(("[engine]", "[trace-cache]"))
                   for line in kept)
    assert "[paper] NetSparse cuts communication" in kept
    assert "[note]  tiny scale" in kept
    assert "arabic       1.23" in kept
    assert "" in kept


def test_digest_ignores_timing_but_not_results():
    retimed = RUN_OUTPUT.replace("[2.3s]", "[17s]").replace(
        "executed=15", "executed=0")
    assert digest(retimed) == digest(RUN_OUTPUT)
    assert digest(RUN_OUTPUT.replace("1.23", "1.24")) != digest(RUN_OUTPUT)
    # A bracketed line that is not a bare timing stays in the digest.
    assert digest(RUN_OUTPUT.replace("[2.3s]", "[2.3s] slow")) != digest(
        RUN_OUTPUT)
