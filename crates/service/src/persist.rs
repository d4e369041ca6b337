//! Warm-cache persistence: the `primepar.cache.v1` artifact.
//!
//! A service dumps its whole-plan memo on shutdown ([`WarmCache::save`]) and
//! a restarted service reloads it ([`WarmCache::load`]) so repeat tenants
//! get memo hits — byte-identical plan text, bit-identical costs — without
//! re-planning. The artifact is a `schema_version`-tagged JSON document like
//! every other observability file in this workspace, so `primepar validate`
//! re-parses it through the same strict path.
//!
//! Each entry persists its [`ResolvedPlan`](crate::ResolvedPlan) (the plan
//! identity), the canonical `plan_text`, and the plan costs with
//! **f64 bit patterns rendered as hex strings** — JSON numbers round-trip
//! through decimal and this artifact's contract is bitwise exactness. On
//! load, every entry's workload is read back as a [`PlanRequest`] and
//! resolved, so it passes the same validation as a request; its recomputed
//! fingerprint must equal the recorded one, and its plan text must parse
//! against its layer graph. Any failure rejects the whole artifact rather
//! than serving a wrong plan. Planner telemetry is
//! *not* persisted — a restored entry carries
//! [`PlannerMetrics::default()`](primepar_search::PlannerMetrics), because
//! the restart did not search.

use std::path::Path;
use std::time::Duration;

use primepar_obs::{parse_json, Json, SchemaError};
use primepar_search::{parse_plan, ModelPlan, PlannerMetrics, SearchStrategy};

use crate::api::PlanRequest;
use crate::cache::{CachedPlan, WarmCache};
use crate::protocol::read_artifact;
use crate::Error;

/// Schema tag of persisted warm-cache artifacts (`*.cache.json`).
pub const CACHE_SCHEMA: &str = "primepar.cache.v1";

/// Renders `bits` as the artifact's exact-f64 encoding.
fn f64_hex(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

/// Reads the exact-f64 encoding of the field `key`.
fn hex_f64(entry: &Json, key: &str) -> Result<f64, SchemaError> {
    let text = entry.req::<&str>(key)?;
    u64::from_str_radix(text, 16)
        .map(f64::from_bits)
        .map_err(|_| SchemaError::shape(key, format!("is not hex: {text}")))
}

fn entry_json(entry: &CachedPlan) -> Json {
    let resolved = &entry.resolved;
    let (space, strategy) = (&resolved.opts.space, resolved.opts.strategy);
    // `strategy` is written only for non-exact plans, so exact-only dumps
    // stay byte-identical to pre-strategy artifacts (and restore under them).
    Json::obj()
        .with("fingerprint", resolved.fingerprint())
        .with("model", resolved.model.name)
        .with("devices", resolved.devices)
        .with("batch", resolved.batch)
        .with("seq", resolved.seq)
        .with("layers", resolved.layers)
        .with("alpha_bits", f64_hex(resolved.opts.alpha))
        .with("allow_temporal", space.allow_temporal)
        .with("allow_batch_split", space.allow_batch_split)
        .with("max_temporal_k", space.max_temporal_k)
        .with_opt(
            "strategy",
            (strategy != SearchStrategy::Exact).then(|| strategy.to_string()),
        )
        .with("layer_cost_bits", f64_hex(entry.plan.layer_cost))
        .with("total_cost_bits", f64_hex(entry.plan.total_cost))
        .with("search_time_us", entry.plan.search_time.as_micros() as u64)
        .with("plan_text", entry.plan_text.as_str())
}

/// Renders `cache`'s whole-plan memo as a `primepar.cache.v1` document.
/// Entries are sorted by fingerprint so dumps of equal caches are
/// byte-identical regardless of shard iteration order.
pub fn cache_to_json(cache: &WarmCache) -> Json {
    let mut entries: Vec<(String, Json)> = Vec::new();
    cache.each_plan(|fingerprint, entry| {
        entries.push((fingerprint.to_string(), entry_json(entry)));
    });
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    Json::tagged(CACHE_SCHEMA).with(
        "entries",
        Json::Arr(entries.into_iter().map(|e| e.1).collect()),
    )
}

/// Rebuilds one memo entry from its persisted form.
fn restore_entry(entry: &Json) -> Result<CachedPlan, Error> {
    let resolved = PlanRequest {
        model: entry.req("model")?,
        devices: entry.req("devices")?,
        batch: entry.req("batch")?,
        seq: entry.req("seq")?,
        layers: Some(entry.req("layers")?),
        alpha: hex_f64(entry, "alpha_bits")?,
        allow_temporal: entry.req("allow_temporal")?,
        allow_batch_split: entry.req("allow_batch_split")?,
        max_temporal_k: entry.req("max_temporal_k")?,
        // Absent for exact plans.
        strategy: match entry.opt::<&str>("strategy")? {
            None => SearchStrategy::Exact,
            Some(text) => text
                .parse()
                .map_err(|e| Error::protocol(format!("cache entry strategy rejected: {e}")))?,
        },
        ..PlanRequest::default()
    }
    .resolve()
    .map_err(|e| Error::protocol(format!("cache entry rejected: {}", e.message())))?;
    let recorded = entry.req::<&str>("fingerprint")?;
    let fingerprint = resolved.fingerprint();
    if fingerprint != recorded {
        return Err(Error::protocol(format!(
            "cache entry fingerprint mismatch: recorded {recorded}, rebuilt {fingerprint}"
        )));
    }
    let graph = resolved.model.layer_graph(resolved.batch, resolved.seq);
    let plan_text: String = entry.req("plan_text")?;
    let seqs = parse_plan(&graph, &plan_text)
        .map_err(|e| Error::protocol(format!("cache entry plan text rejected: {e}")))?;
    let plan = ModelPlan {
        seqs,
        layer_cost: hex_f64(entry, "layer_cost_bits")?,
        total_cost: hex_f64(entry, "total_cost_bits")?,
        search_time: Duration::from_micros(entry.req("search_time_us")?),
    };
    Ok(CachedPlan {
        resolved,
        plan,
        metrics: PlannerMetrics::default(),
        plan_text,
    })
}

/// Restores every entry of a parsed `primepar.cache.v1` document in order,
/// handing each to `adopt`; the first bad entry stops the walk. Returns the
/// entry count.
fn restore_entries(doc: &Json, mut adopt: impl FnMut(CachedPlan)) -> Result<usize, Error> {
    doc.check_schema(CACHE_SCHEMA)?;
    let entries = doc.req::<&[Json]>("entries")?;
    for (i, entry) in entries.iter().enumerate() {
        adopt(
            restore_entry(entry)
                .map_err(|e| Error::protocol(format!("entry {i}: {}", e.message())))?,
        );
    }
    Ok(entries.len())
}

/// Structural validation of a parsed `primepar.cache.v1` document, as used
/// by the `primepar validate` artifact sweep: every entry must restore.
/// Returns the entry count.
///
/// # Errors
///
/// [`Error::Protocol`] describing the first problem found.
pub fn validate_cache_doc(doc: &Json) -> Result<usize, Error> {
    restore_entries(doc, drop)
}

impl WarmCache {
    /// Dumps the whole-plan memo to `path` as a `primepar.cache.v1`
    /// artifact.
    ///
    /// # Errors
    ///
    /// [`Error::Internal`] on I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<usize, Error> {
        let path = path.as_ref();
        let doc = cache_to_json(self);
        let count = doc.req::<&[Json]>("entries").map_or(0, <[_]>::len);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| Error::internal(format!("create {}: {e}", parent.display())))?;
            }
        }
        std::fs::write(path, doc.render_pretty())
            .map_err(|e| Error::internal(format!("write {}: {e}", path.display())))?;
        Ok(count)
    }

    /// Loads a `primepar.cache.v1` artifact into this cache's memo.
    /// Restored entries count as neither hits nor misses until served.
    ///
    /// # Errors
    ///
    /// [`Error::Internal`] on I/O failure; [`Error::Protocol`] for a
    /// malformed or wrong-schema artifact, or one longer than
    /// [`MAX_ARTIFACT_BYTES`](crate::MAX_ARTIFACT_BYTES). On error the cache is left as it
    /// was (entries restored before the failure are kept — they are valid).
    pub fn load(&self, path: impl AsRef<Path>) -> Result<usize, Error> {
        let path = path.as_ref();
        let in_file = |e: String| Error::protocol(format!("{}: {e}", path.display()));
        let doc = parse_json(&read_artifact(path)?).map_err(|e| in_file(e.to_string()))?;
        restore_entries(&doc, |cached| self.adopt(cached)).map_err(|e| in_file(e.message().into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_request(id: &str) -> PlanRequest {
        PlanRequest::builder("opt-6.7b")
            .id(id)
            .devices(4)
            .batch(8)
            .seq(512)
            .layers(Some(4))
            .build()
    }

    #[test]
    fn save_load_round_trips_bitwise() {
        let dir = std::env::temp_dir().join(format!("primepar-persist-{}", std::process::id()));
        let path = dir.join("warm.cache.json");
        let first = WarmCache::new();
        let cold = first.execute_plan(&small_request("cold")).expect("plans");
        assert_eq!(first.save(&path).expect("saves"), 1);

        let second = WarmCache::new();
        assert_eq!(second.load(&path).expect("loads"), 1);
        let warm = second.execute_plan(&small_request("warm")).expect("plans");
        assert!(warm.cache.plan_cache_hit, "restored entry serves a hit");
        assert_eq!(warm.plan_text, cold.plan_text);
        assert_eq!(
            warm.plan.total_cost.to_bits(),
            cold.plan.total_cost.to_bits()
        );
        assert_eq!(
            warm.plan.layer_cost.to_bits(),
            cold.plan.layer_cost.to_bits()
        );
        assert_eq!(warm.plan.seqs, cold.plan.seqs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_is_deterministic_and_validates() {
        let cache = WarmCache::new();
        cache.execute_plan(&small_request("a")).expect("plans");
        cache
            .execute_plan(&PlanRequest {
                layers: Some(2),
                ..small_request("b")
            })
            .expect("plans");
        let doc = cache_to_json(&cache);
        assert_eq!(validate_cache_doc(&doc), Ok(2));
        // Entry order is sorted by fingerprint, independent of insert order.
        let text = doc.render_pretty();
        let reparsed = parse_json(&text).expect("round-trips");
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn beam_entries_round_trip_with_their_strategy() {
        let dir =
            std::env::temp_dir().join(format!("primepar-persist-beam-{}", std::process::id()));
        let path = dir.join("warm.cache.json");
        let beamed = PlanRequest {
            strategy: SearchStrategy::Beam { width: 2 },
            ..small_request("cold")
        };
        let first = WarmCache::new();
        let cold = first.execute_plan(&beamed).expect("plans");
        assert!(cold.fingerprint.ends_with(":st:beam:2"));
        // Exact entries carry no strategy field; beam entries do.
        let doc = cache_to_json(&first);
        assert!(doc.render().contains("\"strategy\""));
        assert_eq!(validate_cache_doc(&doc), Ok(1));

        let second = WarmCache::new();
        assert_eq!(second.load(&path).unwrap_err().exit_code(), 6); // no file yet
        assert_eq!(first.save(&path).expect("saves"), 1);
        assert_eq!(second.load(&path).expect("loads"), 1);
        let warm = second
            .execute_plan(&PlanRequest {
                id: "warm".into(),
                ..beamed.clone()
            })
            .expect("plans");
        assert!(
            warm.cache.plan_cache_hit,
            "restored beam entry serves a hit"
        );
        assert_eq!(warm.plan_text, cold.plan_text);
        // The exact twin of the same workload must miss — different slot.
        let exact = second.execute_plan(&small_request("exact")).expect("plans");
        assert!(!exact.cache.plan_cache_hit);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_wrong_schema_and_tampering() {
        let dir = std::env::temp_dir().join(format!("primepar-persist-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let cache = WarmCache::new();
        cache.execute_plan(&small_request("a")).expect("plans");

        let wrong = dir.join("wrong.cache.json");
        let doc = cache_to_json(&cache).with("schema_version", "primepar.metrics.v1");
        std::fs::write(&wrong, doc.render_pretty()).expect("writes");
        assert!(matches!(
            WarmCache::new().load(&wrong),
            Err(Error::Protocol(_))
        ));

        // Tampering with a key field breaks the fingerprint check.
        let tampered = dir.join("tampered.cache.json");
        let mut doc = cache_to_json(&cache);
        if let Json::Obj(entries) = &mut doc {
            let Some((_, Json::Arr(list))) = entries.iter_mut().find(|(k, _)| k == "entries")
            else {
                panic!("no entries")
            };
            list[0].set("devices", 8u64);
        }
        std::fs::write(&tampered, doc.render()).expect("writes");
        assert!(matches!(
            WarmCache::new().load(&tampered),
            Err(Error::Protocol(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
