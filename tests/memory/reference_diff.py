"""Byte-loop reference for diff extraction (test oracle).

One Python iteration per byte and one ``(offset, bytes)`` tuple per changed
run: the obvious implementation, kept here so the columnar extraction in
:mod:`repro.memory.diff` has something independent to agree with.
"""


def reference_spans(pre, current, dirty=None):
    """``(offset, changed_bytes)`` per maximal run of bytes of ``current``
    that differ from ``pre``, looking only inside the ``dirty`` ranges
    (default: the whole buffer)."""
    pre, current = bytes(pre), bytes(current)
    spans = []
    for start, end in ((0, len(current)),) if dirty is None else dirty:
        run = None
        for at in range(start, end):
            if pre[at] != current[at]:
                if run is None:
                    run = at
            elif run is not None:
                spans.append((run, current[run:at]))
                run = None
        if run is not None:
            spans.append((run, current[run:end]))
    return spans
