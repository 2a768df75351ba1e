"""The recorder ``repro.telemetry.spans`` had before rows: one mutable
``Span`` / ``Instant`` object per record, kept in two Python lists.

Kept as the reference the row log is compared against
(``test_differential.py``).  It takes the same calls as ``Tracer`` —
``site`` ints in, handles out — and nothing else of it is shared.  A
completion-time ``stamp`` is its naive expansion: one ``complete``,
``instant`` or ``end`` per part of the group, in order, each from the
cells it names.
"""

from collections.abc import Mapping

from repro.telemetry.spans import (COMPLETE, END, INSTANT, Instant, Sites,
                                   Span, Tracer)


class ObjectRecorder:
    #: Reads ``self.spans`` only: shared so ``render_dashboard`` runs.
    summary = Tracer.summary

    def __init__(self, env, max_records=1_000_000):
        self.env = env
        self.max_records = max_records
        self.spans, self.instants = [], []
        self.dropped = 0
        self._seq = 0
        # (name, category, track, keys of the values passed, constant args)
        self._sites = [(None, None, None, (), {})]

    def site(self, name, category, track, keys=()):
        """Untyped names, or a typed mapping: ``int`` args are passed,
        anything else is the arg's constant value."""
        template = {}
        if isinstance(keys, Mapping):
            template = {key: None if how is int else how
                        for key, how in keys.items()}
            keys = [key for key, how in keys.items() if how is int]
        self._sites.append((name, category, track, tuple(keys), template))
        return len(self._sites) - 1

    def sites(self, prefix, category, track, keys=()):
        return Sites(lambda member: self.site(
            prefix + getattr(member, "value", member), category, track, keys))

    def end_site(self, *keys):
        return self.site(None, None, None, keys)

    def group(self, *parts):
        return lambda *cells: (parts, cells)

    def _args(self, site, values):
        keys, template = self._sites[site][3:]
        assert len(keys) == len(values)
        return {**template, **dict(zip(keys, values))}

    def _room(self, records=1):
        if len(self.spans) + len(self.instants) + records > self.max_records:
            self.dropped += records
            return False
        return True

    def _record(self, kind, into, site, at_ns, values, **more):
        if not self._room():
            return None
        self._seq += 1
        name, category, track = self._sites[site][:3]
        record = kind(name, category, track,
                      self.env.now if at_ns is None else at_ns,
                      args=self._args(site, values) or None,
                      seq=self._seq, **more)
        into.append(record)
        return record

    def begin(self, site, *values, at_ns=None):
        return self._record(Span, self.spans, site, at_ns, values)

    def opening(self, site):
        return site

    def open(self, site, values):
        return self.begin(site, *values)

    def complete(self, site, start_ns, end_ns, *values):
        return self._record(Span, self.spans, site, start_ns, values,
                            end_ns=end_ns)

    def instant(self, site, *values, at_ns=None):
        return self._record(Instant, self.instants, site, at_ns, values)

    def end(self, span, site=0, *values, at_ns=None):
        if not span:                    # None, or the 0 a group row passes
            return
        span.end_ns = self.env.now if at_ns is None else at_ns
        args = self._args(site, values)
        if args:
            span.args = {**(span.args or {}), **args}

    def stamp(self, row):
        parts, cells = row
        # All of the row's records or none; an END is never refused.
        room = self._room(sum(kind != END for kind, *_ in parts))
        used = set()
        for kind, site, *positions in parts:
            lead = 1 if kind == INSTANT else 2
            assert len(positions) == lead + len(self._sites[site][3])
            used.update(positions)
            head = [cells[cell] for cell in positions[:lead]]
            values = [cells[cell] for cell in positions[lead:]]
            if kind == END:
                self.end(head[0], site, *values, at_ns=head[1])
            elif room and kind == COMPLETE:
                self.complete(site, *head, *values)
            elif room:
                self.instant(site, *values, at_ns=head[0])
        assert used == set(range(len(cells)))

    def clear(self):
        self.spans.clear()
        self.instants.clear()
        self.dropped = 0
