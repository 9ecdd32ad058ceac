"""Reference round-log writer for the tests: one repr and one f-string per
message.

This is the straightforward form of sdnfilt.io.write_roundlog_csv. It reads
each message's value as sent[senders] and assumes nothing about the order
of the senders. The streamed writer must produce the same bytes.
"""

def reference_roundlog_text(logs):
    out = ["epoch,round,from,to,kind,value\n"]
    for log in logs:
        for index, (kind, sent) in enumerate(zip(log.kinds, log.sent)):
            head = f"{log.epoch},{index},"
            tails = map(repr, sent[log.senders].tolist())
            out.extend(f"{head}{s},{t},{kind},{v}\n" for s, t, v in
                       zip(log.senders.tolist(), log.receivers.tolist(), tails))
    return "".join(out)
