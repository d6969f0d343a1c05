//! One clock per host: every trace ring stamps the same host frame, so
//! merging site timelines is a sort and nothing needs rebasing.
//!
//! Rings built at different moments stand in for site processes
//! started at different times; a second in-process cluster stands in
//! for a restart, whose rings start `seq` at 0 again and whose origin
//! reissues the same family ids.

use std::thread;
use std::time::{Duration, Instant};

use camelot::core::CommitMode;
use camelot::net::Outcome;
use camelot::rt::{Cluster, RtConfig};
use camelot::types::{FamilyId, ObjectId, ServerId, SiteId};
use camelot_obs::{TraceEventKind, TraceRing};
use camelot_scope::{merge_skew_aware, ScopeEvent};

const SRV: ServerId = ServerId(1);

#[test]
fn rings_built_apart_interleave_in_emission_order() {
    let first = Instant::now();
    thread::sleep(Duration::from_millis(20));
    let second = Instant::now();
    let rings = [
        TraceRing::new(SiteId(1), 64, first),
        TraceRing::new(SiteId(2), 64, second),
    ];
    for _ in 0..10 {
        for ring in &rings {
            ring.emit(None, TraceEventKind::Crash);
            thread::sleep(Duration::from_micros(200));
        }
    }
    let [a, b] = rings.map(|r| r.drain());
    let emitted: Vec<u64> = a
        .iter()
        .zip(&b)
        .flat_map(|(x, y)| [x.at_us, y.at_us])
        .collect();
    assert!(
        emitted.windows(2).all(|w| w[0] <= w[1]),
        "stamps out of emission order: {emitted:?}"
    );
}

/// One incarnation of a 3-site cluster: `warmups` local commits at
/// site 2, then one distributed 2PC commit from site 1 touching all
/// three sites. Returns that commit's family and the drained trace.
fn incarnation(warmups: u64) -> (FamilyId, Vec<ScopeEvent>) {
    let cluster = Cluster::new(
        3,
        RtConfig {
            datagram_delay: Duration::from_millis(1),
            platter_delay: Duration::from_millis(1),
            trace: true,
            ..RtConfig::default()
        },
    );
    let local = cluster.client(SiteId(2));
    for i in 0..warmups {
        let tid = local.begin().unwrap();
        local
            .write(&tid, SiteId(2), SRV, ObjectId(100 + i), vec![1])
            .unwrap();
        assert_eq!(
            local.commit(&tid, CommitMode::TwoPhase).unwrap(),
            Outcome::Committed
        );
    }
    let client = cluster.client(SiteId(1));
    let tid = client.begin().unwrap();
    for site in 1..=3 {
        client
            .write(&tid, SiteId(site), SRV, ObjectId(site as u64), vec![2])
            .unwrap();
    }
    assert_eq!(
        client.commit(&tid, CommitMode::TwoPhase).unwrap(),
        Outcome::Committed
    );
    // Let the acknowledgement and lazy-flush traffic finish.
    thread::sleep(Duration::from_millis(300));
    let events = cluster.drain_trace();
    assert_eq!(cluster.stats().total_trace_dropped(), 0);
    cluster.shutdown();
    (
        tid.family,
        events.iter().map(ScopeEvent::from_trace).collect(),
    )
}

#[test]
fn merge_keeps_every_stamp_across_a_restart() {
    let (family, mut events) = incarnation(4);
    let (reissued, again) = incarnation(0);
    assert_eq!(family, reissued, "the restarted origin reissues the id");
    events.extend(again);

    // The premise: one (family, 1 → 2, msg) key recurs, and site 2's
    // second receive of it has the lower seq but the later stamp.
    let label = family.to_string();
    let key_msg = events
        .iter()
        .find(|e| {
            e.ev == "datagram_send"
                && e.site == 1
                && e.u64_field("to") == Some(2)
                && e.family.as_deref() == Some(label.as_str())
        })
        .and_then(|e| e.str_field("msg"))
        .expect("site 1 sent site 2 a datagram")
        .to_string();
    let recvs: Vec<&ScopeEvent> = events
        .iter()
        .filter(|e| {
            e.ev == "datagram_recv"
                && e.site == 2
                && e.u64_field("from") == Some(1)
                && e.family.as_deref() == Some(label.as_str())
                && e.str_field("msg") == Some(key_msg.as_str())
        })
        .collect();
    assert_eq!(recvs.len(), 2, "{key_msg} from 1 to 2 once per incarnation");
    assert!(recvs[1].seq < recvs[0].seq && recvs[1].us > recvs[0].us);

    let mut before: Vec<String> = events.iter().map(ScopeEvent::to_json).collect();
    let merged = merge_skew_aware(events);
    let mut after: Vec<String> = merged.events.iter().map(ScopeEvent::to_json).collect();
    before.sort();
    after.sort();
    assert_eq!(before, after, "the merge changed a stamp");
    assert!(merged
        .events
        .windows(2)
        .all(|w| (w[0].us, w[0].site, w[0].seq) <= (w[1].us, w[1].site, w[1].seq)));
    assert_eq!(merged.happens_before_violations(), 0);
}
