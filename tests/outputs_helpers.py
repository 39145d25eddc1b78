"""Queries over a RunOutputs' rows, for the tests that read run results.

Each filter left as None matches every row, so a query names only the
sweep axes it needs.
"""


def _match(rows, policy, tasks, buffer, failure):
    return [r for r in rows
            if r["policy"] == policy
            and (tasks is None or r["tasks"] == tasks)
            and (buffer is None or r["buffer"] == buffer)
            and (failure is None or r["failure_ratio"] == failure)]


def summary_row(outputs, policy: str, tasks=None, buffer=None, failure=None):
    """The one summary row of `policy` at the given point; KeyError unless
    exactly one matches."""
    rows = _match(outputs.summary, policy, tasks, buffer, failure)
    if len(rows) != 1:
        raise KeyError(f"{len(rows)} summary rows match "
                       f"({policy}, {tasks}, {buffer}, {failure})")
    return rows[0]


def run_values(outputs, policy: str, metric: str, tasks=None, buffer=None,
               failure=None):
    """Per-replication metric values, ordered by (sweep point, seed)."""
    out = [r[metric] for r in _match(outputs.runs, policy, tasks, buffer, failure)]
    if not out:
        raise KeyError(f"no runs match ({policy}, {tasks}, {buffer}, {failure})")
    return out
