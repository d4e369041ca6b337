//! Warm-cache persistence across restarts (PR 6 acceptance).
//!
//! A service dumps its whole-plan memo as a `primepar.cache.v1` artifact on
//! shutdown; a **fresh** cache — standing in for the next process — reloads
//! it and serves the same requests as memo hits, byte-identical to what the
//! first instance computed and to a direct [`Planner::optimize`] call.

use std::fs;
use std::path::PathBuf;

use primepar_obs::{parse_json, Json};
use primepar_search::Planner;
use primepar_service::{
    cache_to_json, validate_cache_doc, Error, PlanRequest, PlannerService, ServiceOptions,
    WarmCache, CACHE_SCHEMA,
};
use primepar_topology::Cluster;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("primepar-persistence-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn workload() -> Vec<PlanRequest> {
    [(4usize, 512u64, 1u64), (4, 512, 2), (8, 256, 1)]
        .into_iter()
        .enumerate()
        .map(|(i, (devices, seq, layers))| {
            PlanRequest::builder("opt-6.7b")
                .id(format!("p{i}"))
                .devices(devices)
                .batch(8)
                .seq(seq)
                .layers(Some(layers))
                .build()
        })
        .collect()
}

#[test]
fn second_process_serves_restored_plans_byte_identically() {
    let path = scratch("roundtrip.cache.json");
    let requests = workload();

    // First "process": plan everything cold, dump the memo on the way out.
    let first_cache = WarmCache::new();
    let first: Vec<_> =
        PlannerService::run_with_cache(ServiceOptions::default(), &first_cache, |client| {
            requests
                .iter()
                .map(|req| client.plan(req.clone()).expect("serves"))
                .collect()
        });
    let dumped = first_cache.save(&path).expect("dump");
    assert_eq!(dumped, requests.len());

    // The artifact is a valid, schema-tagged document in its own right.
    let doc = parse_json(&fs::read_to_string(&path).expect("artifact")).expect("json");
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_str()),
        Some(CACHE_SCHEMA)
    );
    assert_eq!(validate_cache_doc(&doc).expect("validates"), requests.len());

    // Second "process": a fresh cache restored from the artifact serves the
    // same requests as hits, without a single planner invocation.
    let second_cache = WarmCache::new();
    assert_eq!(second_cache.load(&path).expect("restore"), requests.len());
    let second: Vec<_> =
        PlannerService::run_with_cache(ServiceOptions::default(), &second_cache, |client| {
            requests
                .iter()
                .map(|req| client.plan(req.clone()).expect("serves"))
                .collect()
        });
    let stats = second_cache.stats();
    assert_eq!(
        stats.plan_misses, 0,
        "restored memo must absorb all requests"
    );
    assert_eq!(stats.plan_hits, requests.len() as u64);

    for (req, (a, b)) in requests.iter().zip(first.iter().zip(&second)) {
        assert!(!a.cache.plan_cache_hit);
        assert!(b.cache.plan_cache_hit, "restored entry must hit");
        assert_eq!(a.plan_text.as_bytes(), b.plan_text.as_bytes());
        assert_eq!(a.plan.seqs, b.plan.seqs);
        assert_eq!(a.plan.layer_cost.to_bits(), b.plan.layer_cost.to_bits());
        assert_eq!(a.plan.total_cost.to_bits(), b.plan.total_cost.to_bits());

        // Both agree with a direct optimize on the same inputs.
        let resolved = req.resolve().expect("valid");
        let cluster = Cluster::v100_like(resolved.devices);
        let graph = resolved.model.layer_graph(resolved.batch, resolved.seq);
        let direct = Planner::new(&cluster, &graph, resolved.opts).optimize(resolved.layers);
        assert_eq!(b.plan.total_cost.to_bits(), direct.total_cost.to_bits());
    }

    fs::remove_file(&path).ok();
}

#[test]
fn dump_restore_dump_is_a_fixed_point() {
    // Restoring a dump and dumping again yields the same bytes: entries are
    // sorted by fingerprint and floats render by bit pattern, so the
    // artifact is deterministic across processes.
    let first = scratch("fixpoint-a.cache.json");
    let second = scratch("fixpoint-b.cache.json");

    let cache = WarmCache::new();
    for req in workload() {
        cache.execute_plan(&req).expect("serves");
    }
    cache.save(&first).expect("dump");

    let restored = WarmCache::new();
    restored.load(&first).expect("restore");
    restored.save(&second).expect("re-dump");

    let a = fs::read(&first).expect("first dump");
    let b = fs::read(&second).expect("second dump");
    assert_eq!(a, b, "dump → restore → dump must be byte-stable");

    fs::remove_file(&first).ok();
    fs::remove_file(&second).ok();
}

/// `doc` with `edit` applied to its first entry.
fn with_first_entry(doc: &Json, edit: impl FnOnce(&mut Json)) -> Json {
    let mut doc = doc.clone();
    let Json::Obj(fields) = &mut doc else {
        panic!("a cache artifact is an object")
    };
    let Some((_, Json::Arr(entries))) = fields.iter_mut().find(|(key, _)| key == "entries") else {
        panic!("a cache artifact has entries")
    };
    edit(&mut entries[0]);
    doc
}

#[test]
fn restore_refuses_entries_no_request_could_name() {
    // A restored entry passes the same validation as a request. Each
    // tampered entry below keeps a fingerprint consistent with its own
    // fields, so only that validation can refuse it: a device count that is
    // not a power of two, and a negative α.
    let cache = WarmCache::new();
    cache.execute_plan(&workload()[0]).expect("serves");
    let doc = cache_to_json(&cache);
    let retag = |entry: &mut Json, field: &str, value: Json, from: &str, to: &str| {
        let fingerprint = entry
            .get("fingerprint")
            .and_then(Json::as_str)
            .expect("entry fingerprint");
        assert!(fingerprint.contains(from), "{fingerprint}");
        let fingerprint = fingerprint.replace(from, to);
        entry.set("fingerprint", fingerprint);
        entry.set(field, value);
    };
    let negative = format!("{:016x}", (-1.0f64).to_bits());
    let tampered = [
        with_first_entry(&doc, |entry| {
            retag(entry, "devices", Json::from(3u64), ":d4:", ":d3:");
        }),
        with_first_entry(&doc, |entry| {
            let to = format!(":a{negative}:");
            retag(
                entry,
                "alpha_bits",
                Json::from(negative.as_str()),
                ":a0000000000000000:",
                &to,
            );
        }),
    ];
    for (i, bad) in tampered.iter().enumerate() {
        assert!(
            matches!(validate_cache_doc(bad), Err(Error::Protocol(_))),
            "case {i}: {:?}",
            validate_cache_doc(bad)
        );
        let path = scratch(&format!("refused-{i}.cache.json"));
        fs::write(&path, bad.render_pretty()).expect("writes");
        let fresh = WarmCache::new();
        assert!(
            matches!(fresh.load(&path), Err(Error::Protocol(_))),
            "case {i}"
        );
        assert_eq!(fresh.stats().plans_interned, 0, "case {i}: nothing adopted");
        fs::remove_file(&path).ok();
    }
}
