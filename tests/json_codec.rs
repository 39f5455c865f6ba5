//! Property suite for the workspace's one JSON reader,
//! [`gecko_fleet::json::Json`], over documents the workspace really
//! writes: the journal of a bucketed fleet campaign (header, `bucket`,
//! `run_done`), a checker journal and memo store (`chunk_done`,
//! `memo_*`), telemetry events, and the wire documents (specs, reports).
//! Seeded SplitMix64 streams with fixed iteration counts check that:
//!
//! * parse → encode gives back every document byte for byte;
//! * random bytes, and random mutations of those documents, never make
//!   the reader or a line decoder panic;
//! * every proper prefix of every line — what a power cut mid-append
//!   leaves behind — is rejected by that line's own decoder.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gecko_check::{
    check_journal_diagnostics, classify_check_lines, classify_memo_lines, war_counter_app,
    CheckCampaign, CheckSpec, ExploreConfig, MemoStore,
};
use gecko_fleet::journal::decode_header;
use gecko_fleet::{
    classify_campaign_lines, report_to_json, spec_to_json, Campaign, CampaignSpec, Journal, Json,
    MemorySink, SchemeKind, Workload,
};
use gecko_isa::SplitMix64;
use gecko_serve::wire::{check_report_to_json, check_spec_to_json, event_value};
use gecko_sim::report::Record;
use gecko_store::Verdict;

/// `(kind, line)` for every JSON line two small campaigns write, plus the
/// standalone wire documents.
fn corpus() -> (Vec<(String, String)>, Vec<String>) {
    let sink = Arc::new(MemorySink::new());
    let journal = Arc::new(Journal::memory());
    let spec = CampaignSpec::new("codec \"sweep\"")
        .apps(["blink"])
        .schemes([SchemeKind::Nvp, SchemeKind::Gecko])
        .workload(Workload::Buckets {
            horizon_s: 0.004,
            bucket_s: 0.002,
        });
    let report = Campaign::new(spec.clone())
        .sink(sink.clone())
        .journal(journal.clone())
        .run()
        .unwrap();

    // One store per call: the tests build their corpora in parallel.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gecko-json-codec-{}-{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let memo = Arc::new(MemoStore::open(&dir).unwrap());
    let check_journal = Arc::new(Journal::memory());
    let check_spec = CheckSpec::new("codec-check")
        .apps([war_counter_app(6)])
        .schemes([SchemeKind::Nvp])
        .explore(ExploreConfig {
            depth: 2,
            power_failure_windows: false,
            refail_horizon: 10,
            max_windows: Some(40),
            ..ExploreConfig::default()
        })
        .chunk_windows(40);
    let check = CheckCampaign::new(check_spec.clone())
        .sink(sink.clone())
        .journal(check_journal.clone())
        .memo(memo.clone())
        .run()
        .unwrap();
    assert!(!check.is_clean(), "the corpus needs violation records");

    let mut lines = journal.lines();
    lines.extend(check_journal.lines());
    lines.extend(memo.log().lines());
    let _ = std::fs::remove_dir_all(&dir);
    // Only an invalidated slab writes a drop; this is its exact form
    // (memostore's fixture test pins the encoder to it).
    lines.push(r#"{"kind":"memo_drop","run_key":6}"#.to_string());
    lines.extend(sink.events().iter().map(Record::to_json));
    let kinded = lines.into_iter().map(|line| {
        let rec = Json::parse_record(&line).expect("every written line parses");
        let kind = ["kind", "event", "journal"]
            .iter()
            .find_map(|key| rec.get(key)?.as_str())
            .expect("every line names its kind");
        (kind.to_string(), line)
    });
    let mut documents = vec![
        spec_to_json(&spec),
        report_to_json(&report),
        check_spec_to_json(&check_spec),
        check_report_to_json(&check),
    ];
    let events = sink.events();
    documents.extend(
        (0..)
            .zip(&events)
            .map(|(seq, e)| event_value(seq, e).encode()),
    );
    (kinded.collect(), documents)
}

#[test]
fn every_written_document_round_trips_byte_for_byte() {
    let (lines, documents) = corpus();
    let kinds = "campaign bucket run_done chunk_done memo_meta memo_slab memo_state item_finished";
    for kind in kinds.split(' ') {
        assert!(lines.iter().any(|(k, _)| k == kind), "corpus lacks {kind}");
    }
    for text in lines.iter().map(|(_, l)| l).chain(&documents) {
        let doc = Json::parse(text).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert_eq!(&doc.encode(), text);
    }
}

#[test]
fn every_proper_prefix_of_a_line_is_rejected_by_its_decoder() {
    let (lines, _) = corpus();
    for (kind, line) in &lines {
        for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            let prefix = &line[..cut];
            let torn = [prefix.to_string()];
            let rejected = Json::parse_record(prefix).is_none()
                && match kind.as_str() {
                    "campaign" => decode_header(prefix).is_none(),
                    "bucket" | "run_done" => classify_campaign_lines(&torn) == [Verdict::Delete],
                    "chunk_done" => {
                        classify_check_lines(&torn) == [Verdict::Delete]
                            && check_journal_diagnostics(&torn).is_empty()
                    }
                    k if k.starts_with("memo_") => classify_memo_lines(&torn) == [Verdict::Delete],
                    _ => Json::parse(prefix).is_err(), // telemetry events
                };
            assert!(rejected, "{kind} prefix accepted: {prefix}");
        }
    }
}

#[test]
fn random_and_mutated_input_never_panics() {
    const ALPHABET: &[u8] = br#"{}[]":,\-+.0123456789eEtrufalsn u"#;
    let (lines, documents) = corpus();
    let seeds: Vec<&String> = lines.iter().map(|(_, l)| l).chain(&documents).collect();
    let mut rng = SplitMix64::new(0x150d_ec0d);
    let pick = |rng: &mut SplitMix64, n: usize| rng.range_u64(0, n as u64) as usize;
    for round in 0..6000 {
        // Even rounds mutate a written document; odd rounds start empty,
        // so their insertions build random byte strings.
        let mut bytes = match round % 2 {
            0 => seeds[pick(&mut rng, seeds.len())].as_bytes().to_vec(),
            _ => Vec::new(),
        };
        for _ in 0..1 + pick(&mut rng, if round % 2 == 0 { 4 } else { 48 }) {
            let at = pick(&mut rng, bytes.len() + 1);
            let byte = match pick(&mut rng, 3) {
                0 => rng.next_u64() as u8,
                _ => ALPHABET[pick(&mut rng, ALPHABET.len())],
            };
            match pick(&mut rng, 4) {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                2 if round % 2 == 0 => bytes.truncate(at),
                _ => bytes.insert(at, byte),
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        let lines = [text.to_string()];
        let _ = decode_header(&text);
        let _ = classify_campaign_lines(&lines);
        let _ = classify_check_lines(&lines);
        let _ = check_journal_diagnostics(&lines);
        let _ = classify_memo_lines(&lines);
        // Whatever parses re-encodes to a fixpoint of parse → encode.
        if let Ok(doc) = Json::parse(&text) {
            let encoded = doc.encode();
            let again = Json::parse(&encoded).unwrap_or_else(|e| panic!("{e}: {encoded}"));
            assert_eq!(again.encode(), encoded, "from {text:?}");
        }
    }
}
