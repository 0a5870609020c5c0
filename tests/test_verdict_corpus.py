"""Every inverse verdict of the committed corpus (``tests/verdicts.py``)
is recomputed and must match its recorded row."""

import verdicts


def test_no_inverse_verdict_moved():
    old, new = verdicts.golden(), verdicts.rows()
    assert new == old, "rows moved:\n" + verdicts.move_table(old, new)
