"""sha256 digests of the world builders' outputs, for golden tests.

Each digest covers a builder's whole output in a canonical text form:
the whois split file, every transfer-ledger field (ground truth
included, so the digest sees what the published feeds collapse) and
every daily ROA snapshot.
"""

import hashlib

from repro.whois.snapshot import render_snapshot


def whois_digest(database) -> str:
    """sha256 of the RIPE split-file rendering of every inetnum."""
    text = render_snapshot(database.inetnums())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def ledger_digest(ledger) -> str:
    """sha256 of one line per transfer record, chronological."""
    digest = hashlib.sha256()
    for record in ledger.records():
        fields = (
            record.transfer_id,
            record.date.isoformat(),
            ",".join(str(prefix) for prefix in record.prefixes),
            record.source_org,
            record.recipient_org,
            record.source_rir.value,
            record.recipient_rir.value,
            record.true_type.value,
            repr(record.price_per_address),
        )
        digest.update((" ".join(fields) + "\n").encode("utf-8"))
    return digest.hexdigest()


def rpki_digest(database) -> str:
    """sha256 of every daily snapshot's sorted ROA rows."""
    digest = hashlib.sha256()
    for date in database.dates():
        rows = sorted(roa.to_csv_row() for roa in database.snapshot(date))
        digest.update(date.isoformat().encode("ascii") + b"\n")
        digest.update("\n".join(rows).encode("utf-8") + b"\n")
    return digest.hexdigest()
