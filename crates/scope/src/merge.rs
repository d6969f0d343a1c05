//! Cross-process trace merge.
//!
//! Every trace ring stamps the host clock (`camelot_obs::TraceEvent::at_us`),
//! so events from different sites, and from different site processes
//! on one host, are already in one frame. Merging is a sort by
//! `(us, site, seq)`; nothing is rebased. The one check that remains
//! counts message edges whose receive is not after its send, which on
//! a host-clock trace means the clocks disagree.

use std::collections::HashMap;

use crate::event::ScopeEvent;

/// The merged cluster timeline: every event, ordered by host time.
#[derive(Debug, Clone)]
pub struct MergedTimeline {
    pub events: Vec<ScopeEvent>,
}

impl MergedTimeline {
    /// One event per line — the single cluster timeline artifact soak,
    /// chaos and smoke write. Merging it again reproduces it byte for
    /// byte.
    pub fn to_jsonl(&self) -> String {
        crate::event::to_jsonl(&self.events)
    }

    /// Matched message edges whose receive is not strictly after its
    /// send. Nothing repairs these, so nonzero means the trace's clocks
    /// disagree (or the pairing does) — smoke and soak assert zero.
    pub fn happens_before_violations(&self) -> usize {
        match_pairs(&self.events)
            .into_iter()
            .filter(|&(s, r)| self.events[r].us <= self.events[s].us)
            .count()
    }
}

/// Matched `(send_index, recv_index)` pairs into an event slice.
/// Shared with [`crate::attr`], which charges the same pairs to the
/// `net_transit` segment.
pub(crate) fn match_pairs(events: &[ScopeEvent]) -> Vec<(usize, usize)> {
    // k-th send ↔ k-th recv per (family, from, to, msg), in host-time
    // order. `seq` restarts with every site incarnation and family ids
    // can be reissued after a restart, so `seq` only breaks ties.
    type Key = (Option<String>, u32, u32, String);
    let mut sends: HashMap<Key, Vec<usize>> = HashMap::new();
    let mut recvs: HashMap<Key, Vec<usize>> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        match e.ev.as_str() {
            "datagram_send" => {
                if let (Some(to), Some(msg)) = (e.u64_field("to"), e.str_field("msg")) {
                    sends
                        .entry((e.family.clone(), e.site, to as u32, msg.to_string()))
                        .or_default()
                        .push(i);
                }
            }
            "datagram_recv" => {
                if let (Some(from), Some(msg)) = (e.u64_field("from"), e.str_field("msg")) {
                    recvs
                        .entry((e.family.clone(), from as u32, e.site, msg.to_string()))
                        .or_default()
                        .push(i);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    for (key, mut s) in sends {
        let Some(mut r) = recvs.remove(&key) else {
            continue;
        };
        s.sort_by_key(|&i| (events[i].us, events[i].seq));
        r.sort_by_key(|&i| (events[i].us, events[i].seq));
        out.extend(s.into_iter().zip(r));
    }
    out
}

/// Merges per-site trace events into one timeline ordered by host
/// time, then site, then sequence number. Timestamps pass through
/// unchanged. The name outlives the clock estimator it once ran; the
/// `ladder/` benchmark still calls it by this name.
pub fn merge_skew_aware(mut events: Vec<ScopeEvent>) -> MergedTimeline {
    events.sort_by_key(|e| (e.us, e.site, e.seq));
    MergedTimeline { events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_jsonl;

    #[test]
    fn merge_sorts_without_rebasing_and_counts_inversions() {
        // Site 2's Prepare receive is stamped before site 1's send:
        // one inversion, reported rather than repaired.
        let events = parse_jsonl(
            "{\"seq\":1,\"site\":2,\"us\":150,\"family\":\"F1.1\",\"ev\":\"datagram_send\",\"to\":1,\"msg\":\"VoteCommit\",\"piggyback\":0}\n\
             {\"seq\":0,\"site\":1,\"us\":120,\"family\":\"F1.1\",\"ev\":\"datagram_send\",\"to\":2,\"msg\":\"Prepare\",\"piggyback\":0}\n\
             {\"seq\":1,\"site\":1,\"us\":180,\"family\":\"F1.1\",\"ev\":\"datagram_recv\",\"from\":2,\"msg\":\"VoteCommit\"}\n\
             {\"seq\":0,\"site\":2,\"us\":110,\"family\":\"F1.1\",\"ev\":\"datagram_recv\",\"from\":1,\"msg\":\"Prepare\"}\n",
        );
        let merged = merge_skew_aware(events.clone());
        let stamps: Vec<(u64, u32)> = merged.events.iter().map(|e| (e.us, e.site)).collect();
        assert_eq!(stamps, vec![(110, 2), (120, 1), (150, 2), (180, 1)]);
        assert_eq!(merged.happens_before_violations(), 1);
        // Merging a merged timeline is the identity.
        let text = merged.to_jsonl();
        assert_eq!(merge_skew_aware(parse_jsonl(&text)).to_jsonl(), text);
    }
}
