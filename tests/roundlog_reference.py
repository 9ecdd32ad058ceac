"""Reference round-log writer for the tests: one repr and one f-string per
message.

This is the straightforward form of sdnfilt.io.write_roundlog_csv. It reads
each message's value as sent[senders] and assumes nothing about the order
of the senders or about arrays shared between rounds. The streamed writer
must produce the same bytes.
"""

def reference_roundlog_text(rounds):
    out = ["epoch,round,from,to,kind,value\n"]
    for r in rounds:
        head, kind = f"{r.epoch},{r.index},", f",{r.kind},"
        tails = map(repr, r.sent[r.senders].tolist())
        out.extend(f"{head}{s},{t}{kind}{v}\n" for s, t, v in
                   zip(r.senders.tolist(), r.receivers.tolist(), tails))
    return "".join(out)
