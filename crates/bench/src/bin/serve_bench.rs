//! Serving-engine load generator: seeded bursty traces through the full
//! text → filtration → tokens → continuous-batching pipeline.
//!
//! Three phases, one report:
//!
//! 1. **Virtual double run (1 thread)** — the same seeded bursty trace
//!    (corpus-derived requests for all four tasks, periodic deadlines)
//!    replayed twice under the virtual clock; the two
//!    [`ServeReport::fingerprint`]s must be bitwise-identical.
//! 2. **Thread sweep (4 threads)** — the same trace again with 4 tensor
//!    worker threads; the fingerprint must equal the 1-thread one (the
//!    kernels run under certified thread-count-invariant schedules).
//! 3. **Real-time concurrent load** — `--clients` threads submit
//!    deadline-free requests through the front door against a real
//!    monotonic clock; sustained QPS, p50/p99 latency, and per-task
//!    fairness are measured here.
//! 4. **Schema-skewed cache phases** — the same corpus workload at
//!    0% / 50% / 90% schema reuse, each run three times: prefix cache
//!    on (wall-clock timed), cache on again, cache off. All three
//!    fingerprints must be bitwise-identical (the cache is invisible
//!    at the bits level); hit rate and QPS per phase land in the
//!    report, and the 90%-reuse phase must actually hit.
//!
//! The process exits nonzero unless every determinism gate holds
//! (`identical: true`, including all cache phases), accounting is exact
//! (zero requests dropped without a typed rejection), and the
//! 90%-reuse phase shows a nonzero hit rate — CI runs a 2-client smoke
//! of this.
//!
//! Writes `target/bench/BENCH_serve.json`.
//!
//! Usage: `serve_bench [--requests N] [--clients N] [--slots N]
//! [--queue-cap N] [--max-out N] [--seed S] [--cache-bytes N]
//! [--out PATH]`

use std::time::Instant;

use bench::trace::{bursty_offsets, corpus_requests, corpus_requests_with_reuse};
use datavist5::config::{Scale, Size};
use datavist5::zoo::Zoo;
use nn::batch::BatchedDecodeState;
use nn::param::ParamSet;
use nn::prefix_cache::PrefixCache;
use nn::t5::T5Model;
use serve::{serve_concurrent, ServeConfig, ServeEngine, ServeReport, ServeRequest};
use tensor::XorShift;
use tokenizer::special::EOS;

fn main() {
    let mut requests = 24usize;
    let mut clients = 4usize;
    let mut slots = 4usize;
    let mut queue_cap = 16usize;
    let mut max_out = 12usize;
    let mut seed = 0x5e12feu64;
    let mut cache_bytes = 32usize << 20;
    let mut out_path = bench::default_bench_out("serve");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--requests" => requests = val("--requests").parse().expect("--requests"),
            "--clients" => clients = val("--clients").parse().expect("--clients"),
            "--slots" => slots = val("--slots").parse().expect("--slots"),
            "--queue-cap" => queue_cap = val("--queue-cap").parse().expect("--queue-cap"),
            "--max-out" => max_out = val("--max-out").parse().expect("--max-out"),
            "--seed" => seed = val("--seed").parse().expect("--seed"),
            "--cache-bytes" => cache_bytes = val("--cache-bytes").parse().expect("--cache-bytes"),
            "--out" => out_path = val("--out").into(),
            other => panic!("unknown argument {other}"),
        }
    }
    assert!(
        clients >= 1 && requests >= clients,
        "need requests >= clients >= 1"
    );

    // The full serving stack: corpus + tokenizer from the zoo, a
    // deterministic random-weight model (scheduling and throughput do
    // not depend on what the weights say), requests built through the
    // text-level path so per-request schema filtration actually runs.
    let zoo = Zoo::new(Scale::Smoke);
    let vocab = zoo.tok.vocab().len();
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(seed);
    let cfg = Scale::Smoke.t5_config(Size::Base, vocab);
    let model = T5Model::new(&mut ps, "serve", cfg, &mut rng);

    let texts = corpus_requests(&zoo.corpus, requests);
    let offsets = bursty_offsets(seed, requests, clients.max(2), 5_000_000, 1_000_000);
    // Virtual-phase trace: every 5th request carries a 40 ms deadline so
    // the deterministic fingerprint also covers R002/R003 paths.
    let trace: Vec<(u64, ServeRequest)> = texts
        .iter()
        .zip(&offsets)
        .enumerate()
        .map(|(i, (tr, &arrival))| {
            let mut req = ServeRequest::from_task(i as u64, tr, &zoo.tok);
            if i % 5 == 4 {
                req = req.with_deadline(arrival + 40_000_000);
            }
            (arrival, req)
        })
        .collect();

    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let kernel_arm = tensor::kernels::arm_name();
    eprintln!(
        "[serve_bench] requests={requests} clients={clients} slots={slots} \
         queue_cap={queue_cap} max_out={max_out} vocab={vocab} \
         hardware_threads={hardware_threads} kernel_arm={kernel_arm}"
    );

    // Phases 1–2: virtual-clock determinism gates.
    let virtual_run = |threads: usize| -> ServeReport {
        tensor::par::set_threads(threads);
        let dec = BatchedDecodeState::new(&model, &ps, slots);
        let mut engine = ServeEngine::new(dec, ServeConfig::new(queue_cap, max_out, EOS));
        engine.run_trace(&trace).expect("bench trace never poisons");
        tensor::par::set_threads(1);
        engine.into_report()
    };
    let t0 = Instant::now();
    let run_a = virtual_run(1);
    let run_b = virtual_run(1);
    let identical_rerun = run_a.fingerprint() == run_b.fingerprint();
    let run_4t = virtual_run(4);
    let identical_threads = run_a.fingerprint() == run_4t.fingerprint();
    let identical = identical_rerun && identical_threads;
    eprintln!(
        "[serve_bench] virtual double-run identical={identical_rerun} \
         thread-sweep identical={identical_threads} ({:.2}s)",
        t0.elapsed().as_secs_f64()
    );
    assert!(run_a.accounted(), "virtual run dropped a request silently");

    let vlat = run_a.latencies_ns(None);
    let virtual_json = serde_json::json!({
        "end_ms": run_a.end_ns as f64 / 1e6,
        "arrivals": run_a.arrivals as i64,
        "completed": run_a.completed as i64,
        "rejected": run_a.rejections() as i64,
        "p50_ms": ServeReport::percentile_ns(&vlat, 50) as f64 / 1e6,
        "p99_ms": ServeReport::percentile_ns(&vlat, 99) as f64 / 1e6,
        "fairness": run_a.fairness(),
    });

    // Phase 3: real-time concurrent load through the front door. Time
    // flows only from the injected monotonic clock (virtual costs zero);
    // requests carry no deadlines so fairness reflects scheduling, not
    // wall-clock luck on a loaded host.
    let dec = BatchedDecodeState::new(&model, &ps, slots);
    let mut cfg = ServeConfig::new(queue_cap, max_out, EOS);
    cfg.step_cost_ns = 0;
    cfg.admit_cost_ns = 0;
    let mut engine = ServeEngine::new(dec, cfg);
    let client_loads: Vec<Vec<ServeRequest>> = (0..clients)
        .map(|c| {
            texts
                .iter()
                .enumerate()
                .filter(|(i, _)| i % clients == c)
                .map(|(i, tr)| ServeRequest::from_task(i as u64, tr, &zoo.tok))
                .collect()
        })
        .collect();
    let epoch = Instant::now();
    let now = move || epoch.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let per_client = serve_concurrent(&mut engine, client_loads, &now);
    let wall_secs = t1.elapsed().as_secs_f64();
    engine.shutdown();
    let real = engine.into_report();
    assert!(real.accounted(), "real-time run dropped a request silently");
    let delivered: usize = per_client.iter().map(Vec::len).sum();
    assert_eq!(delivered, requests, "a client is missing responses");

    let rlat = real.latencies_ns(None);
    let qps = real.completed as f64 / wall_secs;
    let mut per_task_map = serde_json::Map::new();
    for (task, t) in &real.per_task {
        let lat = real.latencies_ns(Some(*task));
        per_task_map.insert(
            task.label().to_string(),
            serde_json::json!({
                "arrivals": t.arrivals as i64,
                "completed": t.completed as i64,
                "rejected": t.rejected as i64,
                "p99_ms": ServeReport::percentile_ns(&lat, 99) as f64 / 1e6,
            }),
        );
    }
    let per_task: serde_json::Value = per_task_map.into();
    let dropped_without_rejection = real.arrivals - real.completed - real.rejections();
    eprintln!(
        "[serve_bench] real-time: {qps:.1} req/s sustained, p50 {:.1} ms, p99 {:.1} ms, \
         fairness {:.3}",
        ServeReport::percentile_ns(&rlat, 50) as f64 / 1e6,
        ServeReport::percentile_ns(&rlat, 99) as f64 / 1e6,
        real.fairness()
    );

    // Phase 4: schema-skewed cache phases. Same workload shape at
    // increasing schema reuse; each phase proves the prefix cache is
    // bit-invisible (cache-on twice + cache-off once, fingerprints all
    // equal) and reports hit rate plus wall-clock QPS of the timed
    // cache-on run. Deadline-free so completed == arrivals and QPS
    // comparisons across phases measure compute, not deadline luck.
    let mut cache_phases = Vec::new();
    let mut cache_identical = true;
    let mut reuse90_hit_rate = 0.0f64;
    for reuse in [0u8, 50, 90] {
        let texts = corpus_requests_with_reuse(&zoo.corpus, requests, reuse, seed);
        let trace: Vec<(u64, ServeRequest)> = texts
            .iter()
            .zip(&offsets)
            .enumerate()
            .map(|(i, (tr, &arrival))| (arrival, ServeRequest::from_task(i as u64, tr, &zoo.tok)))
            .collect();
        let cached_run = |cache: Option<usize>| -> (ServeReport, f64) {
            let dec = match cache {
                Some(cap) => {
                    BatchedDecodeState::with_prefix_cache(&model, &ps, slots, PrefixCache::new(cap))
                }
                None => BatchedDecodeState::new(&model, &ps, slots),
            };
            let mut engine = ServeEngine::new(dec, ServeConfig::new(queue_cap, max_out, EOS));
            let t = Instant::now();
            engine.run_trace(&trace).expect("bench trace never poisons");
            let wall = t.elapsed().as_secs_f64();
            (engine.into_report(), wall)
        };
        let (on_a, wall) = cached_run(Some(cache_bytes));
        let (on_b, _) = cached_run(Some(cache_bytes));
        let (off, _) = cached_run(None);
        let identical =
            on_a.fingerprint() == on_b.fingerprint() && on_a.fingerprint() == off.fingerprint();
        cache_identical &= identical;
        assert!(on_a.accounted(), "cache phase dropped a request silently");
        let stats = on_a.cache.expect("cache-on run reports stats");
        if reuse == 90 {
            reuse90_hit_rate = stats.hit_rate();
        }
        let qps = on_a.completed as f64 / wall;
        eprintln!(
            "[serve_bench] cache reuse={reuse}%: hit_rate={:.3} \
             ({} hits / {} lookups), {qps:.1} req/s, identical={identical}",
            stats.hit_rate(),
            stats.hits,
            stats.lookups()
        );
        cache_phases.push(serde_json::json!({
            "reuse_pct": reuse,
            "hit_rate": stats.hit_rate(),
            "hits": stats.hits as i64,
            "misses": stats.misses as i64,
            "insertions": stats.insertions as i64,
            "evictions": stats.evictions as i64,
            "bypasses": stats.bypasses as i64,
            "completed": on_a.completed as i64,
            "wall_secs": wall,
            "qps": qps,
            "identical": identical,
        }));
    }
    let identical = identical && cache_identical;

    let json = serde_json::json!({
        "requests": requests,
        "clients": clients,
        "slots": slots,
        "queue_cap": queue_cap,
        "max_out": max_out,
        "seed": seed as i64,
        "cache_bytes": cache_bytes,
        "vocab": vocab,
        "hardware_threads": hardware_threads,
        "kernel_arm": kernel_arm,
        "identical": identical,
        "identical_rerun": identical_rerun,
        "identical_4_threads": identical_threads,
        "identical_cache_phases": cache_identical,
        "dropped_without_rejection": dropped_without_rejection as i64,
        "virtual": virtual_json,
        "cache_phases": cache_phases,
        "real": {
            "wall_secs": wall_secs,
            "sustained_qps": qps,
            "arrivals": real.arrivals as i64,
            "completed": real.completed as i64,
            "rejected": real.rejections() as i64,
            "p50_ms": ServeReport::percentile_ns(&rlat, 50) as f64 / 1e6,
            "p99_ms": ServeReport::percentile_ns(&rlat, 99) as f64 / 1e6,
            "fairness": real.fairness(),
            "per_task": per_task,
        },
    });
    let rendered = serde_json::to_string_pretty(&json).expect("serialize");
    println!("{rendered}");
    std::fs::write(&out_path, rendered + "\n").expect("write BENCH_serve.json");
    eprintln!("[serve_bench] -> {}", out_path.display());

    if !identical || dropped_without_rejection != 0 || reuse90_hit_rate <= 0.0 {
        eprintln!(
            "[serve_bench] FAIL: identical={identical} \
             dropped_without_rejection={dropped_without_rejection} \
             reuse90_hit_rate={reuse90_hit_rate:.3}"
        );
        std::process::exit(1);
    }
}
