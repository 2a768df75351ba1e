"""The recorder ``repro.telemetry.spans`` had before rows: one mutable
``Span`` / ``Instant`` object per record, kept in two Python lists.

Kept as the reference the row log is compared against
(``test_differential.py``).  It takes the same calls as ``Tracer`` —
``site`` ints in, handles out — and nothing else of it is shared.
"""

from repro.telemetry.spans import Instant, Span, _Sites


class ObjectRecorder:
    def __init__(self, env, max_records=1_000_000):
        self.env = env
        self.max_records = max_records
        self.spans, self.instants = [], []
        self.dropped = 0
        self._seq = 0
        self._sites = [(None, None, None, ())]

    def site(self, name, category, track, keys=()):
        self._sites.append((name, category, track, tuple(keys)))
        return len(self._sites) - 1

    def sites(self, prefix, category, track, keys=()):
        return _Sites(lambda label: self.site(prefix + label, category,
                                              track, keys))

    def end_site(self, *keys):
        return self.site(None, None, None, keys)

    def _record(self, kind, into, site, at_ns, values, **more):
        if len(self.spans) + len(self.instants) >= self.max_records:
            self.dropped += 1
            return None
        self._seq += 1
        name, category, track, keys = self._sites[site]
        assert len(keys) == len(values)
        record = kind(name, category, track,
                      self.env.now if at_ns is None else at_ns,
                      args=dict(zip(keys, values)) if keys else None,
                      seq=self._seq, **more)
        into.append(record)
        return record

    def begin(self, site, *values, at_ns=None):
        return self._record(Span, self.spans, site, at_ns, values)

    def complete(self, site, start_ns, end_ns, *values):
        return self._record(Span, self.spans, site, start_ns, values,
                            end_ns=end_ns)

    def instant(self, site, *values, at_ns=None):
        return self._record(Instant, self.instants, site, at_ns, values)

    def end(self, span, site=0, *values, at_ns=None):
        if span is None:
            return
        span.end_ns = self.env.now if at_ns is None else at_ns
        keys = self._sites[site][3]
        assert len(keys) == len(values)
        if keys:
            span.args = {**(span.args or {}), **dict(zip(keys, values))}

    def clear(self):
        self.spans.clear()
        self.instants.clear()
        self.dropped = 0
